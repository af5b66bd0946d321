"""Three-stage training orchestration and the inference chain.

Stage 1 trains the 2000-gene expression VAE and freezes its latent. Stage 2
trains two 500-gene VAEs (cells and spots) whose latents are tied to the
frozen stage-1 latent by a paired euclidean anchor (cells) and to each
other by an adversarial discriminator, then freezes both. Stage 3 trains
the graph VGAE over the spot adjacency, anchoring its merged latent to the
frozen spot latent, and learns to decode expression and coordinates.

Inference runs a query expression matrix through the cell-side 500-gene
encoder and straight into the VGAE decoder: the cross-space mappings are
identity because the training losses exist precisely to make the paired
latent distributions coincide.

An "epoch" everywhere is one full-batch Adam step; the datasets are desk
scale.

All cross-stage state lives in a run directory:

    config.json, manifest.json (written by the CLI)
    checkpoints/{vae_sc2000,vae_sc500,vae_st500,vgae_st,discriminator}.{json,npz}
        (JSON header with arch and arrays sha256, plus the float64 arrays)
    latents/{z_sc2000,z_sc500,z_st500,z_st_merged}.csv
    history/stage{1,2,3}.csv
    graph_edges.txt, coord_transform.json, panel_shared.txt
"""

import logging
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import dataio
from . import discriminator as disc
from . import layers as nn
from . import vae
from . import vgae as vg
from .errors import DataError, DependencyError, ShapeError

log = logging.getLogger("latentmap.pipeline")

# rng stream subkeys per purpose, derived from the one run seed
_S1_INIT, _S1_NOISE = 10, 11
_S2_VAE_INIT, _S2_DISC_INIT, _S2_NOISE_SC, _S2_NOISE_ST, _S2_NOISE_PRE = 20, 21, 22, 23, 24
_S3_INIT, _S3_NOISE, _S3_NEGATIVES = 30, 31, 32


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
    squared_latent_loss: bool = True
    adv_train_sc: bool = True   # spot side always gets the adversarial term; this adds the cell side
    seed: int = 0

    def __post_init__(self):
        self.enc_hidden = tuple(self.enc_hidden)
        for name in ("s1_epochs", "s2_epochs", "s2b_epochs", "s3_epochs"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        for name in ("w_anchor_sc", "w_adv", "w_anchor_st", "w_recon_exp",
                     "w_recon_sp", "w_recon_adj", "kl_weight"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if self.latent_dim % 2 != 0:
            raise DataError("latent_dim must be even (the merge layer splits it)")
        if self.disc_max_iters < 0:
            raise DataError("disc_max_iters must be >= 0")
        self.seed = int(self.seed)

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
        return TrainConfig.from_dict(dataio.read_json(path))


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def euclidean_latent_loss(za, zb, squared: bool = True):
    """Mean over rows of the (squared) euclidean distance between paired rows.

    Row i of both matrices must describe the same cell or spot. The squared
    form is the training default (smooth at zero); ``squared=False`` gives
    the plain distance.
    """
    za = ad.as_tensor(za)
    zb = ad.as_tensor(zb)
    if za.shape != zb.shape:
        raise ShapeError(f"paired latents differ in shape: {tuple(za.shape)} vs {tuple(zb.shape)}")
    sq = ad.square(ad.sub(za, zb))
    n = za.shape[0]
    if squared:
        return ad.scale(ad.tsum(sq), 1.0 / n)
    return ad.tmean(ad.sqrt(ad.sum_cols(sq)))


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------

# every checkpoint is a JSON header plus the arrays file beside it
CHECKPOINTS = {
    stage: [f for header in headers for f in (header, nn.arrays_path(header))]
    for stage, headers in {1: ["vae_sc2000.json"],
                           2: ["vae_sc500.json", "vae_st500.json", "discriminator.json"],
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
            os.makedirs(self.path(sub), exist_ok=True)

    def stage_artifacts(self, stage):
        out = [self.path("checkpoints", name) for name in CHECKPOINTS[stage]]
        out += [self.path("latents", name) for name in LATENTS[stage]]
        out.append(self.path("history", f"stage{stage}.csv"))
        return out

    def stage_complete(self, stage):
        return all(os.path.exists(p) for p in self.stage_artifacts(stage))

    def require_stage(self, stage):
        for p in self.stage_artifacts(stage):
            if not os.path.exists(p):
                raise DependencyError(f"missing artifact from stage {stage}: {p}")

    def refuse_overwrite(self, stage, force):
        if force:
            return
        existing = [p for p in self.stage_artifacts(stage) if os.path.exists(p)]
        if existing:
            raise DependencyError(
                f"stage {stage} artifacts already exist (rerun with --force): {existing[0]}")

    def load_latent(self, name):
        ids, codes = dataio.read_latent_csv(self.path("latents", name))
        lm = vae.LatentMatrix(codes, ids, source=name.removesuffix(".csv"))
        return lm.fix()

    def write_latent(self, name, row_ids, codes):
        dataio.write_latent_csv(self.path("latents", name), row_ids, codes)


def read_history(path):
    """A stage history CSV -> (header, rows with every value as a float)."""
    return dataio.read_table(path, lambda row: [float(v) for v in row])


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage1(cfg: TrainConfig, x_sc2000, row_ids, run: RunDir):
    """Train the 2000-gene VAE; freeze and persist its latent."""
    run.ensure_layout()
    x = np.asarray(x_sc2000, dtype=np.float64)
    model = vae.init_vae(vae.VaeConfig(n_genes=x.shape[1], latent_dim=cfg.latent_dim,
                                       enc_hidden=cfg.enc_hidden),
                         _rng(cfg.seed, _S1_INIT))
    noise_rng = _rng(cfg.seed, _S1_NOISE)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    rows = []
    for epoch in range(cfg.s1_epochs):
        noise = noise_rng.normal(size=(x.shape[0], cfg.latent_dim))
        terms = ad.train_step(opt, lambda: vae.vae_loss(model, x, noise, beta=cfg.kl_weight)[:3],
                              f"stage 1, step {epoch}")
        rows.append([epoch, *terms])
    codes = vae.encode_mu(model, x)
    vae.save_vae(run.path("checkpoints", "vae_sc2000.json"), model)
    run.write_latent("z_sc2000.csv", row_ids, codes)
    dataio.write_table(run.path("history", "stage1.csv"),
                       ["epoch", "total", "recon", "kl"], rows)
    log.info("stage 1 done: %d epochs, final total %.5f", cfg.s1_epochs, rows[-1][1])
    return vae.LatentMatrix(codes, list(row_ids), source="sc2000").fix()


def _generator_step(model, opt, x, noise, cfg, anchor_target, anchor_weight,
                    d_params, adv_label, adv_weight, where):
    """One full-batch step for a 500-gene VAE inside stage 2.

    Loss = recon + kl_weight * KL + anchor_weight * anchor + adv_weight * adv.
    The anchor and the adversarial term act on the posterior mean, the same
    quantity that later gets frozen. Returns [total, recon, kl, anchor, adv];
    a term with zero weight reads 0.
    """
    def loss():
        total, recon, kl, mu = vae.vae_loss(model, x, noise, beta=cfg.kl_weight)
        anchor = adv = ad.tensor(0.0)
        if anchor_weight > 0 and anchor_target is not None:
            anchor = euclidean_latent_loss(mu, anchor_target, squared=cfg.squared_latent_loss)
            total = ad.add(total, ad.scale(anchor, anchor_weight))
        if adv_weight > 0:
            adv = disc.adversarial_generator_loss(d_params, mu, target_label=adv_label)
            total = ad.add(total, ad.scale(adv, adv_weight))
        return total, recon, kl, anchor, adv

    return ad.train_step(opt, loss, where)


def _pretrain_shared_init(cfg, vae_cfg, x_sc, x_st):
    """One VAE trained on the stacked matrices, used to seed both sides.

    Starting both 500-gene VAEs from one model trained on cells and spots
    together means their latent spaces begin identical, with trained type
    separation and exact cluster correspondence. Stage 2 then only has to
    preserve that correspondence while the anchors specialize each side.
    """
    pre = vae.init_vae(vae_cfg, _rng(cfg.seed, _S2_VAE_INIT))
    x_union = np.vstack([x_sc, x_st])
    noise_rng = _rng(cfg.seed, _S2_NOISE_PRE)
    opt = ad.Adam(pre.params(), lr=cfg.learning_rate)
    for epoch in range(cfg.s2_init_epochs):
        noise = noise_rng.normal(size=(x_union.shape[0], cfg.latent_dim))
        ad.train_step(opt, lambda: vae.vae_loss(pre, x_union, noise, beta=cfg.kl_weight)[:1],
                      f"stage 2 pretraining, step {epoch}")
    return pre


def stage2(cfg: TrainConfig, x_sc500, sc_ids, x_st500, st_ids, z_fixed_sc2000, run: RunDir):
    """Adversarially align the 500-gene cell and spot latents; freeze both.

    Per outer epoch: encode both datasets, train the discriminator on the
    detached posterior means until it hits the target accuracy or the
    iteration cap, then take ``s2b_epochs`` generator steps on each VAE. The
    cell VAE also carries the anchor to the frozen 2000-gene latent; with
    ``adv_train_sc`` both VAEs receive the adversarial term (each pushed
    toward the other side's label).
    """
    run.ensure_layout()
    x_sc = np.asarray(x_sc500, dtype=np.float64)
    x_st = np.asarray(x_st500, dtype=np.float64)
    if x_sc.shape[1] != x_st.shape[1]:
        raise DataError(f"panel width mismatch: {x_sc.shape[1]} vs {x_st.shape[1]}")
    if list(sc_ids) != list(z_fixed_sc2000.row_ids):
        raise DataError("cell ids do not match the fixed 2000-gene latent rows")
    anchor = z_fixed_sc2000.codes

    n_genes = x_sc.shape[1]
    vae_cfg = vae.VaeConfig(n_genes=n_genes, latent_dim=cfg.latent_dim,
                            enc_hidden=cfg.enc_hidden)
    pre = _pretrain_shared_init(cfg, vae_cfg, x_sc, x_st)
    pre_arrays = {k: t.data.copy() for k, t in pre.params().items()}
    model_sc = vae.init_vae(vae_cfg, _rng(cfg.seed, _S2_VAE_INIT))
    model_st = vae.init_vae(vae_cfg, _rng(cfg.seed, _S2_VAE_INIT))
    nn.restore_params(model_sc.params(), pre_arrays)
    nn.restore_params(model_st.params(), {k: v.copy() for k, v in pre_arrays.items()})
    d_params = disc.init_discriminator(cfg.latent_dim, _rng(cfg.seed, _S2_DISC_INIT))
    noise_sc = _rng(cfg.seed, _S2_NOISE_SC)
    noise_st = _rng(cfg.seed, _S2_NOISE_ST)
    opt_sc = ad.Adam(model_sc.params(), lr=cfg.learning_rate)
    opt_st = ad.Adam(model_st.params(), lr=cfg.learning_rate)

    rows = []
    for outer in range(cfg.s2_epochs):
        mu_sc = vae.encode_mu(model_sc, x_sc)
        mu_st = vae.encode_mu(model_st, x_st)
        d_params, d_acc, d_steps = disc.train_discriminator(
            d_params, mu_sc, mu_st, alpha=cfg.disc_target_acc,
            max_iters=cfg.disc_max_iters, lr=cfg.disc_lr)
        for inner in range(cfg.s2b_epochs):
            where = f"stage 2, step {outer * cfg.s2b_epochs + inner}"
            sc_stats = _generator_step(
                model_sc, opt_sc, x_sc, noise_sc.normal(size=(x_sc.shape[0], cfg.latent_dim)),
                cfg, anchor, cfg.w_anchor_sc, d_params, adv_label=0.0,
                adv_weight=cfg.w_adv if cfg.adv_train_sc else 0.0, where=f"{where}, cells")
            st_stats = _generator_step(
                model_st, opt_st, x_st, noise_st.normal(size=(x_st.shape[0], cfg.latent_dim)),
                cfg, None, 0.0, d_params, adv_label=1.0, adv_weight=cfg.w_adv,
                where=f"{where}, spots")
            rows.append([outer, inner, d_acc, d_steps,
                         sc_stats[0], sc_stats[1], sc_stats[2], sc_stats[3], sc_stats[4],
                         st_stats[0], st_stats[1], st_stats[2], st_stats[4]])

    codes_sc = vae.encode_mu(model_sc, x_sc)
    codes_st = vae.encode_mu(model_st, x_st)
    vae.save_vae(run.path("checkpoints", "vae_sc500.json"), model_sc)
    vae.save_vae(run.path("checkpoints", "vae_st500.json"), model_st)
    disc.save_discriminator(run.path("checkpoints", "discriminator.json"), d_params)
    run.write_latent("z_sc500.csv", sc_ids, codes_sc)
    run.write_latent("z_st500.csv", st_ids, codes_st)
    dataio.write_table(run.path("history", "stage2.csv"),
                       ["outer", "inner", "disc_acc", "disc_steps",
                        "total_sc", "recon_sc", "kl_sc", "anchor_sc", "adv_sc",
                        "total_st", "recon_st", "kl_st", "adv_st"], rows)
    log.info("stage 2 done: %d outer epochs, final anchor %.5f", cfg.s2_epochs, rows[-1][7])
    return (vae.LatentMatrix(codes_sc, list(sc_ids), source="sc500").fix(),
            vae.LatentMatrix(codes_st, list(st_ids), source="st_exp500").fix())


def stage3(cfg: TrainConfig, x_st500, st_ids, coords, z_fixed_st500, run: RunDir):
    """Train the graph VGAE, anchored to the frozen spot latent."""
    run.ensure_layout()
    x = np.ascontiguousarray(x_st500, dtype=np.float64)  # converted once, not per step
    coords = np.asarray(coords, dtype=np.float64)
    if list(st_ids) != list(z_fixed_st500.row_ids):
        raise DataError("spot ids do not match the fixed 500-gene latent rows")
    if coords.shape[0] != x.shape[0]:
        raise DataError("coordinate rows do not match expression rows")
    anchor = z_fixed_st500.codes

    transform = vg.fit_coord_transform(coords)
    coords_n = transform.normalize(coords)
    graph = vg.build_knn_graph(coords, k=cfg.graph_k)
    model = vg.init_vgae(vg.VgaeConfig(n_genes=x.shape[1], latent_dim=cfg.latent_dim,
                                       exp_hidden=cfg.enc_hidden,
                                       dec_hidden=tuple(reversed(cfg.enc_hidden))),
                         _rng(cfg.seed, _S3_INIT))
    noise_rng = _rng(cfg.seed, _S3_NOISE)
    neg_rng = _rng(cfg.seed, _S3_NEGATIVES)
    weights = vg.VgaeLossWeights(recon_exp=cfg.w_recon_exp, recon_sp=cfg.w_recon_sp,
                                 recon_adj=cfg.w_recon_adj, kl=cfg.kl_weight)
    pos, keys = vg.positive_pairs(graph), vg.edge_keys(graph)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    rows = []

    def loss():
        noise = noise_rng.normal(size=(x.shape[0], cfg.latent_dim))
        *terms, mu = vg.vgae_loss(model, graph, x, coords_n, noise, weights, neg_rng,
                                  pos=pos, keys=keys)
        anchor_loss = euclidean_latent_loss(mu, anchor, squared=cfg.squared_latent_loss)
        terms[0] = ad.add(terms[0], ad.scale(anchor_loss, cfg.w_anchor_st))
        return (*terms, anchor_loss)

    for epoch in range(cfg.s3_epochs):
        rows.append([epoch, *ad.train_step(opt, loss, f"stage 3, step {epoch}")])

    codes = vg.encode_mu(model, graph.norm_adj, x)
    vg.save_vgae(run.path("checkpoints", "vgae_st.json"), model,
                 extra={"coord_transform": transform.to_dict(), "graph_k": cfg.graph_k})
    run.write_latent("z_st_merged.csv", st_ids, codes)
    dataio.write_edge_list(run.path("graph_edges.txt"), graph.edges)
    dataio.write_json(run.path("coord_transform.json"), transform.to_dict())
    dataio.write_table(run.path("history", "stage3.csv"),
                       ["epoch", "total", "recon_exp", "recon_sp", "recon_adj", "kl", "anchor_st"],
                       rows)
    log.info("stage 3 done: %d epochs, final anchor %.5f", cfg.s3_epochs, rows[-1][6])
    return vae.LatentMatrix(codes, list(st_ids), source="st_exp_sp500").fix()


def infer(run: RunDir, x_query, panel_ids, query_cols):
    """Expression-only rows -> (imputed panel expression, coordinates).

    The query columns must be exactly the shared panel, in panel order.
    Coordinates come back in the normalized training frame along with the
    transform that maps them to the training tissue's frame.
    """
    run.require_stage(2)
    run.require_stage(3)
    if list(query_cols) != list(panel_ids):
        missing = sorted(set(panel_ids) - set(query_cols))
        extra = sorted(set(query_cols) - set(panel_ids))
        if missing or extra:
            raise DataError(f"query panel mismatch: missing {missing[:10]}, extra {extra[:10]}")
        raise DataError("query panel is out of order; columns must follow the panel order")
    x = np.asarray(x_query, dtype=np.float64)
    model_sc = vae.load_vae(run.path("checkpoints", "vae_sc500.json"))
    model_vg, extra = vg.load_vgae(run.path("checkpoints", "vgae_st.json"))
    transform = vg.CoordTransform.from_dict(extra["coord_transform"])
    if x.shape[0] == 0:
        return np.zeros((0, model_vg.cfg.n_genes)), np.zeros((0, 2)), transform
    z = vae.encode_mu(model_sc, x)  # cross-space mappings are identity
    x_hat, coords_hat, _ = vg.vgae_decode(model_vg, z)
    return x_hat.data.copy(), coords_hat.data.copy(), transform


# ---------------------------------------------------------------------------
# orchestration over a data directory
# ---------------------------------------------------------------------------

@dataclass
class PipelineData:
    """Preprocessed artifacts the stages consume."""

    sc2000: tuple  # (row_ids, col_ids, matrix)
    sc500: tuple
    st500: tuple
    st_coords: tuple  # (spot_ids, [n, 2])
    panel_shared: list


def load_pipeline_data(data_dir) -> PipelineData:
    def need(name):
        p = os.path.join(data_dir, name)
        if not os.path.exists(p):
            raise DependencyError(f"missing preprocessed artifact: {p}")
        return p

    data = PipelineData(
        sc2000=dataio.read_matrix_csv(need("x_sc2000.csv")),
        sc500=dataio.read_matrix_csv(need("x_sc500.csv")),
        st500=dataio.read_matrix_csv(need("x_st500.csv")),
        st_coords=dataio.read_coords_csv(need("st_coords.csv")),
        panel_shared=dataio.read_id_list(need("panel_shared500.txt")),
    )
    if data.sc2000[0] != data.sc500[0]:
        raise DataError("x_sc2000 and x_sc500 disagree on cell ids")
    if data.st500[0] != data.st_coords[0]:
        raise DataError("x_st500 and st_coords disagree on spot ids")
    if data.sc500[1] != data.panel_shared or data.st500[1] != data.panel_shared:
        raise DataError("500-gene matrices do not follow the shared panel order")
    return data


def run_stage(stage: int, cfg: TrainConfig, data: PipelineData, run: RunDir,
              force: bool = False):
    run.refuse_overwrite(stage, force)
    if stage == 1:
        return stage1(cfg, data.sc2000[2], data.sc2000[0], run)
    if stage == 2:
        run.require_stage(1)
        fixed = run.load_latent("z_sc2000.csv")
        return stage2(cfg, data.sc500[2], data.sc500[0], data.st500[2], data.st500[0],
                      fixed, run)
    if stage == 3:
        run.require_stage(2)
        fixed = run.load_latent("z_st500.csv")
        return stage3(cfg, data.st500[2], data.st500[0], data.st_coords[1], fixed, run)
    raise DataError(f"unknown stage {stage}")
