"""Three-stage training orchestration and the inference chain.

Stage 1 trains the 2000-gene expression VAE and freezes its latent. Stage 2
trains two 500-gene VAEs (cells and spots) whose latents are tied to the
frozen stage-1 latent by a paired euclidean anchor (cells) and to each
other by an adversarial discriminator, then freezes both; the two VAEs
train as one model, one Adam step on their summed objective per update,
between the discriminator's own steps. Stage 3 trains
the graph VGAE over the spot adjacency, anchoring its merged latent to the
frozen spot latent, and learns to decode expression and coordinates.

Inference runs a query expression matrix through the cell-side 500-gene
encoder and straight into the VGAE decoder: the cross-space mappings are
identity because the training losses exist precisely to make the paired
latent distributions coincide.

An "epoch" everywhere is one full-batch Adam step; the datasets are desk
scale.

Each training objective is written once, as a function of the parameters
and the step's random draws that returns its scalar terms by name, the
weighted ``"total"`` first: ``_vae_terms`` (stage 1 and the shared
pretraining), ``_generator_terms`` (stage 2, both VAEs at once) and
``_stage3_terms``. A step draws its noise (per stage-2 side, from that
side's stream; in stage 3, then its negatives) inside the taped loss and
calls one of them; ``ad.train_step`` trains on the total, and each history
column is the name the objective gives its term. ``latentmap gradcheck``
checks the same functions, and the discriminator's ``disc.disc_loss``.

``load_pipeline_data`` reads and checks the whole preprocess directory,
then keeps, for each stage asked for, only its counts on its panels, in
their narrow integer dtype: the cell counts on the 2000-gene panel (stage
1), the cell and spot counts on the 500-gene panel (stage 2) and the spot
counts again (stage 3). ``run_stage`` takes a stage's entry out and builds
its float64 matrices with ``pp.panel_matrix`` only when the stage starts,
so stage 1 trains beside about 0.6 MB of 500-gene integers rather than
their 5 MB of floats, a lone ``--stage 3`` normalizes only the spot
counts, and each stage's matrices are freed when it returns.

``_fit`` logs a progress line every ``LOG_EVERY`` steps, and each stage
logs its wall time and the process's peak RSS when it is done.

All cross-stage state lives in a run directory:

    config.json, manifest.json, panel_shared.txt
        (written by ``RunDir.write_records`` after each stage ``train``
        completes; the manifest's ``artifacts`` names the stage files on disk)
    checkpoints/{vae_sc2000,vae_sc500,vae_st500,vgae_st}.{json,f64}
        (JSON header with the arch, the parameter names and shapes and the
        block's sha256, plus every parameter as one float64 block; the
        vgae_st header also holds the coordinate transform)
    latents/{z_sc2000,z_sc500,z_st500,z_st_merged}.csv
    history/stage{1,2,3}.csv
    graph_edges.txt (the spot kNN edges, a stage-3 file)

``RunDir.stage_artifacts``, built from ``CHECKPOINTS`` and ``LATENTS``, names
the files that gate each stage and that the run manifest lists. A stage is
refused over files of its own or of a later stage unless forced, and a
forced rerun deletes the later stages' files once it has written its own,
so every stage on disk was built from the latents on disk. ``cli`` names
no file of a run directory: it reads and writes one through ``RunDir``.
"""

import copy
import logging
import math
import numbers
import os
import resource
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from . import autodiff as ad
from . import dataio
from . import discriminator as disc
from . import layers as nn
from . import preprocess as pp
from . import vae
from . import vgae as vg
from .errors import DataError, DependencyError, ShapeError

log = logging.getLogger("latentmap.pipeline")

# rng stream subkeys per purpose, derived from the one run seed
_S1_INIT, _S1_NOISE = 10, 11
_S2_VAE_INIT, _S2_DISC_INIT, _S2_NOISE_SC, _S2_NOISE_ST, _S2_NOISE_PRE = 20, 21, 22, 23, 24
_S3_INIT, _S3_NOISE, _S3_NEGATIVES = 30, 31, 32

LOG_EVERY = 100  # steps between two progress lines of a training loop


@dataclass
class TrainConfig:
    """Everything a run needs; one epoch = one full-batch Adam step.

    The stage-2 defaults are deliberately short: the two 500-gene encoders
    start from identical weights, so their latent distributions begin
    coincident and the adversarial term only has to retard divergence while
    the anchor pulls the cell side toward the frozen 2000-gene latent.
    Long stage-2 schedules let the encoders specialize to their own
    sampling noise and a fresh discriminator separates them again.
    """

    s1_epochs: int = 500
    s2_init_epochs: int = 400  # pretraining of the shared 500-gene initializer
    s2_epochs: int = 12
    s2b_epochs: int = 1
    s3_epochs: int = 600
    # discriminator inner loop: train to this accuracy, capped at this many steps
    disc_target_acc: float = 0.9
    disc_max_iters: int = 50
    disc_lr: float = 1e-3
    latent_dim: int = 10
    enc_hidden: tuple = (128, 64)
    # loss weights
    w_anchor_sc: float = 1.0    # ties the cell 500-gene latent to the fixed 2000-gene latent
    w_adv: float = 6.0          # adversarial alignment between cell and spot latents
    w_anchor_st: float = 5.0    # ties the merged spot latent to the fixed spot latent
    w_recon_exp: float = 1.0
    w_recon_sp: float = 5.0
    w_recon_adj: float = 1.0
    kl_weight: float = 0.05
    learning_rate: float = 5e-4
    graph_k: int = 6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is tuple:
                value = _check_int_list(f.name, value)
            elif not _TYPE_CHECKS[f.type](value):
                raise DataError(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {value!r}")
            else:
                value = f.type(value)  # plain ints and floats for JSON: 6 is saved as 6.0
            setattr(self, f.name, value)
        for name in ("s1_epochs", "s2_epochs", "s2b_epochs", "s3_epochs", "graph_k"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        for name in ("s2_init_epochs", "disc_max_iters", "w_anchor_sc", "w_adv", "w_anchor_st",
                     "w_recon_exp", "w_recon_sp", "w_recon_adj", "kl_weight", "seed"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("learning_rate", "disc_lr"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be > 0")
        if not 0 < self.disc_target_acc <= 1:
            raise DataError("disc_target_acc must be in (0, 1]")
        if self.latent_dim < 2:
            raise DataError(f"latent_dim must be >= 2, got {self.latent_dim}")
        if self.latent_dim % 2 != 0:
            raise DataError("latent_dim must be even (the merge layer splits it)")

    def to_dict(self):
        d = asdict(self)
        d["enc_hidden"] = list(self.enc_hidden)
        return d

    @staticmethod
    def from_dict(d):
        known = set(TrainConfig.__dataclass_fields__)
        unknown = sorted(set(d) - known)
        if unknown:
            raise DataError(f"unknown config keys: {unknown}")
        return TrainConfig(**d)

    def save(self, path):
        dataio.write_json(path, self.to_dict())

    @staticmethod
    def load(path):
        d = dataio.read_json(path)
        try:
            return TrainConfig.from_dict(d)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite_real(v):
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


_TYPE_CHECKS = {int: _is_int, float: _is_finite_real}
_TYPE_NAMES = {int: "an integer", float: "a finite number"}


def _check_int_list(name, value):
    if not isinstance(value, (list, tuple)) or not all(_is_int(v) and v >= 1 for v in value):
        raise DataError(f"{name} must be a list of integers >= 1, got {value!r}")
    return tuple(int(v) for v in value)


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def euclidean_latent_loss(za, zb):
    """Mean over rows of the squared euclidean distance between paired rows.

    Row i of both matrices must describe the same cell or spot.
    """
    za = ad.as_tensor(za)
    zb = ad.as_tensor(zb)
    if za.shape != zb.shape:
        raise ShapeError(f"paired latents differ in shape: {tuple(za.shape)} vs {tuple(zb.shape)}")
    return ad.scale(ad.tsum(ad.square(ad.sub(za, zb))), 1.0 / za.shape[0])


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------

# every checkpoint is a JSON header plus the arrays file beside it
CHECKPOINTS = {
    stage: [f for header in headers for f in (header, nn.arrays_path(header))]
    for stage, headers in {1: ["vae_sc2000.json"],
                           2: ["vae_sc500.json", "vae_st500.json"],
                           3: ["vgae_st.json"]}.items()
}
LATENTS = {
    1: ["z_sc2000.csv"],
    2: ["z_sc500.csv", "z_st500.csv"],
    3: ["z_st_merged.csv"],
}


class RunDir:
    """Paths, stage gating, and artifact IO for one training run."""

    def __init__(self, root):
        self.root = str(root)

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def ensure_layout(self):
        for sub in ("checkpoints", "latents", "history"):
            dataio.make_dirs(self.path(sub))

    def stage_artifacts(self, stage):
        out = [self.path("checkpoints", name) for name in CHECKPOINTS[stage]]
        out += [self.path("latents", name) for name in LATENTS[stage]]
        out.append(self.path("history", f"stage{stage}.csv"))
        if stage == 3:
            out.append(self.path("graph_edges.txt"))
        return out

    def require_stage(self, stage):
        for p in self.stage_artifacts(stage):
            if not os.path.exists(p):
                raise DependencyError(f"missing artifact from stage {stage}: {p}")

    def _artifacts_from(self, stage):
        return [p for s in CHECKPOINTS if s >= stage for p in self.stage_artifacts(s)]

    def refuse_overwrite(self, stage, force):
        """Refuse, unless ``force``, to run ``stage`` over files of it or of a later stage."""
        existing = [p for p in self._artifacts_from(stage) if os.path.exists(p)]
        if existing and not force:
            raise DependencyError(f"stage {stage} or a later stage already has artifacts "
                                  f"(rerun with --force): {existing[0]}")

    def remove_later_stages(self, stage):
        """Delete the files of every stage after ``stage``, built from the latent it replaced."""
        for p in self._artifacts_from(stage + 1):
            dataio.remove_file(p)

    def target_sum(self):
        """The ``target_sum`` that ``train`` recorded in ``manifest.json``.

        A run dir without a manifest (one built through the Python API), or
        whose manifest does not record it, uses the preprocess default.
        """
        path = self.path("manifest.json")
        return (_read_target_sum(path, default=pp.TARGET_SUM) if os.path.exists(path)
                else pp.TARGET_SUM)

    def verify_manifest(self, digests, cfg, force):
        """Refuse to resume a run recorded with other inputs (``digests``: file name -> sha256).

        Another config is refused too, unless ``force``. A run dir without a
        manifest passes.
        """
        path = self.path("manifest.json")
        if not os.path.exists(path):
            return
        manifest = dataio.read_json(path)
        recorded_digests = manifest.get("input_digests", {})
        if not isinstance(recorded_digests, dict):
            raise DataError(f"{path}: 'input_digests' must be a JSON object")
        for name, digest in digests.items():
            recorded = recorded_digests.get(name)
            if recorded is not None and recorded != digest:
                raise DataError(f"input {name} changed since the manifest was written "
                                f"(digest mismatch); use a fresh run directory")
        if manifest.get("config") != cfg.to_dict() and not force:
            raise DependencyError(
                "config differs from the one recorded in this run directory's "
                "manifest; use a fresh run directory or --force")

    def write_records(self, cfg, panel, digests, target_sum):
        """Write ``config.json``, ``panel_shared.txt`` (``panel``'s ids) and ``manifest.json``."""
        cfg.save(self.path("config.json"))
        dataio.write_id_list(self.path("panel_shared.txt"), panel)
        dataio.write_json(self.path("manifest.json"), {
            "tool_version": __version__, "seed": cfg.seed, "target_sum": target_sum,
            "config": cfg.to_dict(), "input_digests": digests,
            "artifacts": sorted(os.path.basename(p) for stage in CHECKPOINTS
                                for p in self.stage_artifacts(stage) if os.path.exists(p))})

    def read_panel(self):
        """(the recorded panel, its path); DependencyError if ``panel_shared.txt`` is missing."""
        path = self.path("panel_shared.txt")
        if not os.path.exists(path):
            raise DependencyError(f"missing artifact: {path}")
        return dataio.read_panel(path), path

    def load_latent(self, name):
        ids, codes = dataio.read_latent_csv(self.path("latents", name))
        lm = vae.LatentMatrix(codes, ids, source=name.removesuffix(".csv"))
        return lm.fix()

    def write_latent(self, name, row_ids, codes):
        """Write ``latents/<name>``; returns it frozen, named like ``load_latent`` names it."""
        dataio.write_latent_csv(self.path("latents", name), row_ids, codes)
        return vae.LatentMatrix(codes, list(row_ids), source=name.removesuffix(".csv")).fix()


def read_history(path):
    """A stage history CSV -> (header, rows with every value as a float)."""
    return dataio.read_table(path, lambda row: [float(v) for v in row])


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _noise(cfg, x, rng):
    """One step's reparameterization noise for the rows of ``x``."""
    return rng.normal(size=(x.shape[0], cfg.latent_dim))


def _vae_terms(cfg, model, x, noise):
    """The VAE objective on ``x`` under ``noise``: ({total, recon, kl}, the posterior mean).

    Stage 1 and the shared pretraining train on it. total = recon +
    kl_weight * KL; the mean lets stage 2 add terms on it.
    """
    recon, kl, mu = vae.vae_loss(model, x, noise)
    return {"total": ad.add(recon, ad.scale(kl, cfg.kl_weight)), "recon": recon, "kl": kl}, mu


def _generator_terms(cfg, models, xs, noises, anchor, d_params):
    """Stage 2's objective over both 500-gene VAEs, cells then spots.

    ``models``, ``xs`` and ``noises`` each hold the cell side's, then the
    spot side's. Each side's total is recon + kl_weight * KL + w_adv * adv,
    where the adversarial term pushes its posterior mean, through the
    frozen discriminator ``d_params``, toward the other side's label; the
    cell side's also adds w_anchor_sc * anchor, tying its mean to the
    frozen 2000-gene latent ``anchor`` (spots have none). Both terms act on
    the quantity that later gets frozen. Returns {total, total_sc, recon_sc,
    kl_sc, anchor_sc, adv_sc, total_st, recon_st, kl_st, adv_st}, total
    being the two sides' totals summed.
    """
    (sc, mu_sc), (st, mu_st) = (_vae_terms(cfg, m, x, e) for m, x, e in zip(models, xs, noises))
    sc["anchor"] = euclidean_latent_loss(mu_sc, anchor)
    sc["total"] = ad.add(sc["total"], ad.scale(sc["anchor"], cfg.w_anchor_sc))
    for terms, mu, label in ((sc, mu_sc, 0.0), (st, mu_st, 1.0)):
        terms["adv"] = disc.adversarial_generator_loss(d_params, mu, target_label=label)
        terms["total"] = ad.add(terms["total"], ad.scale(terms["adv"], cfg.w_adv))
    return {"total": ad.add(sc["total"], st["total"]),
            **{f"{name}_sc": t for name, t in sc.items()},
            **{f"{name}_st": t for name, t in st.items()}}


def _stage3_terms(cfg, model, graph, x, coords_n, anchor, noise, neg):
    """Stage 3's objective: {total, recon_exp, recon_sp, recon_adj, kl, anchor_st}.

    total is the weighted VGAE terms plus ``w_anchor_st`` times the anchor
    of the posterior mean to the frozen spot latent ``anchor``; ``neg`` are
    the step's non-edge keys.
    """
    exp, sp, adj, kl, mu = vg.vgae_loss(model, graph, x, coords_n, noise, neg)
    vgae_total = ad.add(ad.add(ad.scale(exp, cfg.w_recon_exp), ad.scale(sp, cfg.w_recon_sp)),
                        ad.add(ad.scale(adj, cfg.w_recon_adj), ad.scale(kl, cfg.kl_weight)))
    anchor_st = euclidean_latent_loss(mu, anchor)
    return {"total": ad.add(vgae_total, ad.scale(anchor_st, cfg.w_anchor_st)),
            "recon_exp": exp, "recon_sp": sp, "recon_adj": adj, "kl": kl, "anchor_st": anchor_st}


def _fit(cfg, model, loss, epochs, where):
    """``epochs`` Adam steps of ``loss`` on ``model``'s parameters.

    Returns the history: its header, ``epoch`` and the names of the terms
    ``loss`` returns, and one row [epoch, *terms] per step. Every
    ``LOG_EVERY`` steps it logs the step, the total and the mean time of
    those steps.
    """
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    steps = []
    since = time.perf_counter()
    for epoch in range(epochs):
        steps.append(ad.train_step(opt, loss, f"{where}, step {epoch}"))
        if len(steps) % LOG_EVERY == 0:
            now = time.perf_counter()
            log.info("%s: step %d of %d, total %.5f, %.1f ms/step", where, len(steps), epochs,
                     steps[-1]["total"], (now - since) * 1e3 / LOG_EVERY)
            since = now
    return ["epoch", *next(iter(steps), {})], [[i, *t.values()] for i, t in enumerate(steps)]


def _write_history(run, stage, header, rows, term, started):
    """Write ``history/stage<stage>.csv``; log the last value of the column ``term``, the
    time since ``started`` (a ``time.perf_counter`` reading) and the process's peak RSS."""
    dataio.write_table(run.path("history", f"stage{stage}.csv"), header, rows)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    log.info("stage %d done: %d steps, final %s %.5f, %.1f s, peak RSS %.1f MiB", stage,
             len(rows), term, rows[-1][header.index(term)], time.perf_counter() - started,
             peak_mib)


def _train_vae(cfg, x, init_stream, noise_stream, epochs, where):
    """A VAE on ``x``, initialized from one rng stream and trained on noise from another.

    Returns (the model, the header and rows of its history).
    """
    model = vae.init_vae(vae.VaeConfig(n_genes=x.shape[1], latent_dim=cfg.latent_dim,
                                       enc_hidden=cfg.enc_hidden), _rng(cfg.seed, init_stream))
    rng = _rng(cfg.seed, noise_stream)
    return model, *_fit(cfg, model, lambda: _vae_terms(cfg, model, x, _noise(cfg, x, rng))[0],
                        epochs, where)


def stage1(cfg: TrainConfig, x_sc2000, row_ids, run: RunDir):
    """Train the 2000-gene VAE; freeze and persist its latent."""
    started = time.perf_counter()
    run.ensure_layout()
    x = np.asarray(x_sc2000, dtype=np.float64)
    model, header, rows = _train_vae(cfg, x, _S1_INIT, _S1_NOISE, cfg.s1_epochs, "stage 1")
    vae.save_vae(run.path("checkpoints", "vae_sc2000.json"), model)
    latent = run.write_latent("z_sc2000.csv", row_ids, vae.encode_mu(model, x))
    _write_history(run, 1, header, rows, "total", started)
    return latent


def _anchor_codes(fixed, ids, kind, latent_dim):
    """Codes of a frozen latent, refused unless its rows are ``ids`` and it is latent_dim wide."""
    if list(ids) != list(fixed.row_ids):
        raise DataError(f"{kind} ids do not match the rows of the fixed {fixed.source} latent")
    if fixed.codes.shape[1] != latent_dim:
        raise DataError(f"the fixed {fixed.source} latent is {fixed.codes.shape[1]} wide, but "
                        f"latent_dim is {latent_dim}; retrain the stage that wrote it")
    return fixed.codes


def _generator_step(cfg, opt, models, xs, noise_rngs, anchor, d_params, where):
    """One Adam step of ``_generator_terms`` over both VAEs, each side on noise drawn from
    its own stream in ``noise_rngs``; returns the terms as floats, by name."""
    return ad.train_step(opt, lambda: _generator_terms(
        cfg, models, xs, [_noise(cfg, x, rng) for x, rng in zip(xs, noise_rngs)], anchor,
        d_params), where)


def _pretrain_shared_init(cfg, x_sc, x_st):
    """One VAE trained on the stacked matrices, used to seed both sides.

    Starting both 500-gene VAEs from one model trained on cells and spots
    together means their latent spaces begin identical, with trained type
    separation and exact cluster correspondence. Stage 2 then only has to
    preserve that correspondence while the anchors specialize each side.
    """
    return _train_vae(cfg, np.vstack([x_sc, x_st]), _S2_VAE_INIT, _S2_NOISE_PRE,
                      cfg.s2_init_epochs, "stage 2 pretraining")[0]


def stage2(cfg: TrainConfig, x_sc500, sc_ids, x_st500, st_ids, z_fixed_sc2000, run: RunDir):
    """Adversarially align the 500-gene cell and spot latents; freeze both.

    Both VAEs start from ``_pretrain_shared_init``'s model and are trained
    as one: one Adam holds their parameters, named ``sc.*`` and ``st.*``.
    Per outer epoch: encode both datasets, train the discriminator on the
    detached posterior means until it hits the target accuracy or the
    iteration cap, then take ``s2b_epochs`` generator steps, each one
    ``_generator_step`` on both sides' summed objective. The cell side also
    carries the anchor to the frozen 2000-gene latent; each side's
    adversarial term pushes it toward the other side's label.
    """
    started = time.perf_counter()
    run.ensure_layout()
    xs = (np.asarray(x_sc500, dtype=np.float64), np.asarray(x_st500, dtype=np.float64))
    if xs[0].shape[1] != xs[1].shape[1]:
        raise DataError(f"panel width mismatch: {xs[0].shape[1]} vs {xs[1].shape[1]}")
    anchor = _anchor_codes(z_fixed_sc2000, sc_ids, "cell", cfg.latent_dim)

    model_sc = _pretrain_shared_init(cfg, *xs)
    models = (model_sc, copy.deepcopy(model_sc))
    d_params = disc.init_discriminator(cfg.latent_dim, _rng(cfg.seed, _S2_DISC_INIT))
    noise_rngs = (_rng(cfg.seed, _S2_NOISE_SC), _rng(cfg.seed, _S2_NOISE_ST))
    opt = ad.Adam({f"{side}.{name}": t for side, model in zip(("sc", "st"), models)
                   for name, t in model.params().items()}, lr=cfg.learning_rate)

    rows = []
    for outer in range(cfg.s2_epochs):
        mu_sc, mu_st = (vae.encode_mu(model, x) for model, x in zip(models, xs))
        d_params, d_acc, d_steps = disc.train_discriminator(
            d_params, mu_sc, mu_st, alpha=cfg.disc_target_acc,
            max_iters=cfg.disc_max_iters, lr=cfg.disc_lr)
        for inner in range(cfg.s2b_epochs):
            terms = _generator_step(cfg, opt, models, xs, noise_rngs, anchor, d_params,
                                    f"stage 2, step {outer * cfg.s2b_epochs + inner}")
            rows.append([outer, inner, d_acc, d_steps, *list(terms.values())[1:]])

    latents = []
    for side, model, x, ids in zip(("sc", "st"), models, xs, (sc_ids, st_ids)):
        vae.save_vae(run.path("checkpoints", f"vae_{side}500.json"), model)
        latents.append(run.write_latent(f"z_{side}500.csv", ids, vae.encode_mu(model, x)))
    header = ["outer", "inner", "disc_acc", "disc_steps", *list(terms)[1:]]
    _write_history(run, 2, header, rows, "anchor_sc", started)
    return tuple(latents)


def stage3(cfg: TrainConfig, x_st500, st_ids, coords, z_fixed_st500, run: RunDir):
    """Train the graph VGAE, anchored to the frozen spot latent."""
    started = time.perf_counter()
    run.ensure_layout()
    x = np.ascontiguousarray(x_st500, dtype=np.float64)  # converted once, not per step
    coords = np.asarray(coords, dtype=np.float64)
    anchor = _anchor_codes(z_fixed_st500, st_ids, "spot", cfg.latent_dim)
    if coords.shape[0] != x.shape[0]:
        raise DataError("coordinate rows do not match expression rows")

    transform = vg.fit_coord_transform(coords)
    coords_n = transform.normalize(coords)
    graph = vg.build_knn_graph(coords, k=cfg.graph_k)
    model = vg.init_vgae(vg.VgaeConfig(n_genes=x.shape[1], latent_dim=cfg.latent_dim,
                                       exp_hidden=cfg.enc_hidden),
                         _rng(cfg.seed, _S3_INIT))
    noise_rng = _rng(cfg.seed, _S3_NOISE)
    neg_rng = _rng(cfg.seed, _S3_NEGATIVES)

    def loss():
        noise = _noise(cfg, x, noise_rng)
        neg = vg.sample_negatives(graph.keys, graph.n, len(graph.keys), neg_rng)
        return _stage3_terms(cfg, model, graph, x, coords_n, anchor, noise, neg)

    header, rows = _fit(cfg, model, loss, cfg.s3_epochs, "stage 3")

    vg.save_vgae(run.path("checkpoints", "vgae_st.json"), model,
                 extra={"coord_transform": transform.to_dict()})
    latent = run.write_latent("z_st_merged.csv", st_ids, vg.encode_mu(model, graph.norm_adj, x))
    dataio.write_edge_list(run.path("graph_edges.txt"), graph.edges)
    _write_history(run, 3, header, rows, "anchor_st", started)
    return latent


def infer(run: RunDir, x_query):
    """Expression-only rows -> (imputed panel expression, coordinates).

    The query columns must be exactly the run's shared panel
    (``panel_shared.txt``), in panel order. Coordinates come back in the
    normalized training frame along with the transform that maps them to
    the training tissue's frame.
    """
    run.require_stage(2)
    run.require_stage(3)
    x = np.asarray(x_query, dtype=np.float64)
    model_sc = vae.load_vae(run.path("checkpoints", "vae_sc500.json"))
    if x.shape[1] != model_sc.cfg.n_genes:
        raise DataError(f"{run.path('panel_shared.txt')}: {x.shape[1]} genes, but "
                        f"vae_sc500 expects {model_sc.cfg.n_genes}")
    vgae_path = run.path("checkpoints", "vgae_st.json")
    model_vg, extra = vg.load_vgae(vgae_path)
    transform = nn.from_header(
        vgae_path, lambda e: vg.CoordTransform.from_dict(e["coord_transform"]), extra)
    z = vae.encode_mu(model_sc, x)  # cross-space mappings are identity
    x_hat, coords_hat, _ = vg.vgae_decode(model_vg, z)
    return x_hat.data.copy(), coords_hat.data.copy(), transform


# ---------------------------------------------------------------------------
# orchestration over a data directory
# ---------------------------------------------------------------------------

# the preprocess outputs that training reads; the run manifest records their digests
PREPROCESSED = ("sc_counts_qc.csv", "st_counts_qc.csv", "st_coords.csv",
                "panel_hvg2000.txt", "panel_shared500.txt", "summary.json")


def _read_target_sum(path, default=None):
    """The ``target_sum`` recorded in a JSON file (``default`` if absent): a finite number > 0."""
    value = dataio.read_json(path).get("target_sum", default)
    if not (_is_finite_real(value) and value > 0):
        raise DataError(f"{path}: target_sum must be a finite number > 0, got {value!r}")
    return float(value)


def load_pipeline_data(data_dir, stages, cfg: TrainConfig):
    """The inputs of ``stages``, from a ``latentmap preprocess`` output directory.

    Returns ``(inputs, panel, target_sum)``. ``inputs`` maps each of
    ``stages`` to a function that builds the arguments its ``stage1/2/3``
    takes from the data: (the 2000-gene cell matrix, cell ids); (the
    500-gene cell matrix, cell ids, the 500-gene spot matrix, spot ids);
    (that spot matrix, spot ids, coordinates). Each matrix is
    ``pp.panel_matrix`` of the counts on its panel with the recorded
    ``target_sum``, the normalization ``infer`` applies to query cells, and
    is built only when the function is called; until then the function
    holds the counts on the panel, in their narrow integer dtype. ``panel``
    is the shared panel's gene ids and ``target_sum`` the recorded
    normalization, both for the run records.

    The directory holds QC-filtered integer counts, the two gene panels and
    ``summary.json``. All of it is read and checked whatever ``stages``, so
    a bad directory fails before any stage runs: the counts must have every
    gene of their panels and, in every row, counts on each
    (``pp.panel_counts``, the rule ``pp.panel_matrix`` applies; the error
    names both files), the spot ids must be the coordinates', and when
    stage 3 is asked for, ``cfg.graph_k`` must be below the spot count. A
    missing file is a DependencyError; a ``summary.json`` that cannot be
    read or has no valid ``target_sum`` is a DataError naming it.
    """
    paths = {name: os.path.join(data_dir, name) for name in PREPROCESSED}
    for name, p in paths.items():
        if name != "summary.json" and not os.path.exists(p):
            raise DependencyError(f"missing preprocessed artifact: {p}; "
                                  "re-run `latentmap preprocess` to write it")
    target_sum = _read_target_sum(paths["summary.json"])
    counts = {name: dataio.read_counts_csv(paths[name])
              for name in ("sc_counts_qc.csv", "st_counts_qc.csv")}
    panels = {name: dataio.read_panel(paths[name])
              for name in ("panel_hvg2000.txt", "panel_shared500.txt")}

    def on_panel(counts_name, panel_name):
        """The counts on the panel, refused as ``pp.panel_matrix`` would; an error names both files."""
        try:
            return pp.panel_counts(counts[counts_name], panels[panel_name])
        except DataError as exc:
            raise DataError(f"{paths[counts_name]} on {paths[panel_name]}: {exc}") from None

    sc2000 = on_panel("sc_counts_qc.csv", "panel_hvg2000.txt")
    sc500 = on_panel("sc_counts_qc.csv", "panel_shared500.txt")
    st500 = on_panel("st_counts_qc.csv", "panel_shared500.txt")
    spot_ids, coords = dataio.read_coords_csv(paths["st_coords.csv"])
    dataio.check_spot_ids(paths["st_counts_qc.csv"], st500.row_ids, paths["st_coords.csv"],
                          spot_ids)
    if 3 in stages and cfg.graph_k >= st500.n_rows:  # the kNN graph needs k < spots
        raise DataError(f"graph_k {cfg.graph_k} must be below the spot count, "
                        f"{st500.n_rows} in {paths['st_counts_qc.csv']}")

    big, shared = panels["panel_hvg2000.txt"], panels["panel_shared500.txt"]
    matrix = lambda m, panel: pp.panel_matrix(m, panel, target_sum)
    inputs = {1: lambda: (matrix(sc2000, big), sc2000.row_ids),
              2: lambda: (matrix(sc500, shared), sc500.row_ids, matrix(st500, shared),
                          st500.row_ids),
              3: lambda: (matrix(st500, shared), st500.row_ids, coords)}
    return {stage: inputs[stage] for stage in stages}, shared.gene_ids, target_sum


def run_stage(stage: int, cfg: TrainConfig, inputs: dict, run: RunDir, force: bool = False):
    """Run stage ``stage`` in ``run`` on its entry of ``inputs``; returns what the stage returns.

    ``inputs`` is the mapping ``load_pipeline_data`` returns. Without
    ``force``, files of this stage or a later one are refused; the previous
    stage's must exist. Only then is the stage's entry taken out of
    ``inputs`` and its matrices built, so its counts are freed as the stage
    starts and its matrices when it returns. Stages 2 and 3 read the
    previous stage's frozen latent and refuse one without the data's rows
    or latent_dim columns before they write anything. Once the stage has
    written its files, those of every later stage are deleted: they were
    built from the latent this stage replaced.
    """
    run.refuse_overwrite(stage, force)
    if stage > 1:
        run.require_stage(stage - 1)
    args = inputs.pop(stage)()
    if stage == 1:
        out = stage1(cfg, *args, run)
    elif stage == 2:
        out = stage2(cfg, *args, run.load_latent("z_sc2000.csv"), run)
    else:
        out = stage3(cfg, *args, run.load_latent("z_st500.csv"), run)
    run.remove_later_stages(stage)
    return out
