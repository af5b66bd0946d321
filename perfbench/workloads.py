"""The three benchmark workloads: set-up, the timed operation, and its checks.

Every input comes from ``latentmap.synth`` under the workload seed. A
workload object holds no timing logic: ``setup`` builds the inputs in a work
directory, ``op`` runs one timed operation and returns its wall time plus a
record, and ``verify`` checks a record after the timed loop, returning the
list of problems found (empty when the output is correct) and the sha256 of
each output file.

desk_pipeline  the README corpus; times ``latentmap train --stage all``.
slide_4096     a 64x64 spot grid; times ``pipeline.stage3``.
infer_stream   a closed loop of ``latentmap infer`` calls, one caller, each on
               a fresh batch of query cells, against a run directory trained
               in set-up on a tiny schedule.
"""

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

from latentmap import cli, dataio
from latentmap import pipeline as pl
from latentmap import preprocess as pp
from latentmap import synth as sy
from latentmap import vae
from latentmap import vgae as vg

# Shortened training schedule for desk_pipeline: (s1, s2_init, s2, s3) steps.
# Quality tracks s2_init and s3; the discriminator cap keeps the inner loop
# from dominating the run.
DESK_SCHEDULE = {"s1_epochs": 20, "s2_init_epochs": 400, "s2_epochs": 12, "s3_epochs": 300,
                 "disc_max_iters": 15}
TINY_SCHEDULE = {"s1_epochs": 1, "s2_init_epochs": 1, "s2_epochs": 1, "s3_epochs": 1,
                 "disc_max_iters": 1}

SIZES = {
    "full": {
        "desk_pipeline": {"synth": {"n_cells": 1000, "n_genes": 2000, "n_shared": 500,
                                    "grid_side": 16, "n_query": 200},
                          "preprocess": [], "schedule": DESK_SCHEDULE},
        "slide_4096": {"grid_side": 64, "n_genes": 2000, "n_shared": 500, "s3_epochs": 4,
                       "auc_pairs": 2000},
        "infer_stream": {"n_cells": 300, "n_genes": 2000, "n_shared": 500, "grid_side": 16,
                         "panel": 500, "pool": 1000, "batch": 100},
    },
    # seconds-long variants of the same code paths, for the harness's own tests
    "toy": {
        "desk_pipeline": {"synth": {"n_cells": 60, "n_genes": 120, "n_shared": 60,
                                    "grid_side": 6, "n_query": 20},
                          "preprocess": ["--min-genes", "1", "--min-cells", "1",
                                         "--n-hvg", "100", "--n-shared", "40"],
                          "schedule": {"s1_epochs": 2, "s2_init_epochs": 2, "s2_epochs": 2,
                                       "s3_epochs": 2, "disc_max_iters": 2}},
        "slide_4096": {"grid_side": 8, "n_genes": 120, "n_shared": 60, "s3_epochs": 2,
                       "auc_pairs": 20},
        "infer_stream": {"n_cells": 60, "n_genes": 120, "n_shared": 60, "grid_side": 6,
                         "panel": 40, "pool": 40, "batch": 5},
    },
}

# The client's own query-file writer, bound before any tracing wrapper is
# installed so that a traced run counts only the program's IO.
_write_query = dataio.write_counts_csv

# rng stream subkeys of the benchmark's own draws, apart from the program's
_ANCHOR_STREAM, _AUC_STREAM, _BATCH_STREAM = 101, 102, 103


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_cli(argv):
    """``latentmap <argv>`` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def check_loss_fell(history, problems):
    """A stage's total loss must end below where it started: a broken gradient shows here.

    Only stages 1 and 3 are checked; the adversarial terms of stage 2 make
    its totals rise by design.
    """
    _, rows = pl.read_history(history)
    if not rows[-1][1] < rows[0][1]:
        problems.append(f"{os.path.basename(history)}: total loss {rows[0][1]!r} -> "
                        f"{rows[-1][1]!r} did not fall")


@contextlib.contextmanager
def keep_saved_models(kept):
    """Keep each model the program checkpoints, as trained, under its file name.

    The checks predict from these in-memory models, not from the checkpoint
    files, so a fault in the checkpoint write or parse shows as a mismatch.
    """
    save_vae, save_vgae = vae.save_vae, vg.save_vgae

    def keep_vae(path, p):
        kept[os.path.basename(path)] = p
        return save_vae(path, p)

    def keep_vgae(path, p, extra=None):
        kept[os.path.basename(path)] = (p, extra)
        return save_vgae(path, p, extra=extra)

    vae.save_vae, vg.save_vgae = keep_vae, keep_vgae
    try:
        yield kept
    finally:
        vae.save_vae, vg.save_vgae = save_vae, save_vgae


def check_predictions(pred, query, panel, models, problems, digests):
    """A prediction CSV against the in-memory trained models on the same query rows.

    Floats are written with repr, so the parsed values must match exactly.
    Returns the CSV's (ids, values), or None when they cannot be compared.
    """
    ids, _, values = dataio.read_matrix_csv(pred)
    digests[os.path.basename(pred)] = sha256(pred)
    if ids != query.row_ids or not np.all(np.isfinite(values)):
        problems.append("predictions: wrong rows or non-finite values")
        return None
    model_vg, extra = models["vgae_st.json"]
    transform = vg.CoordTransform.from_dict(extra["coord_transform"])
    z = vae.encode_mu(models["vae_sc500.json"], pp.panel_matrix(query, pp.GenePanel(panel)))
    x_hat, coords, _ = vg.vgae_decode(model_vg, z)
    if not np.array_equal(values, np.hstack([transform.denormalize(coords.data), x_hat.data])):
        problems.append("predictions differ from the in-memory trained models")
    return ids, values


def check_latent(path, n_rows, problems, digests, key):
    """Row count and finiteness of a latent CSV; records its digest."""
    if not os.path.exists(path):
        problems.append(f"{key}: missing")
        return None
    ids, codes = dataio.read_latent_csv(path)
    if len(ids) != n_rows:
        problems.append(f"{key}: {len(ids)} rows, expected {n_rows}")
    if not np.all(np.isfinite(codes)):
        problems.append(f"{key}: non-finite values")
    digests[key] = sha256(path)
    return codes


class Workload:
    """One workload under one seed, at the sizes of ``SIZES[...][name]``."""

    name = None

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size


class DeskPipeline(Workload):
    """README corpus end to end: synth + preprocess in set-up, CLI training timed."""

    name = "desk_pipeline"

    def setup(self, work):
        corpus, prep = os.path.join(work, "corpus"), os.path.join(work, "prep")
        s = self.size["synth"]
        code, _ = run_cli(["synth", "--out", corpus, "--seed", self.seed,
                           "--n-cells", s["n_cells"], "--n-genes", s["n_genes"],
                           "--n-shared", s["n_shared"], "--grid-side", s["grid_side"],
                           "--n-query", s["n_query"]])
        if code == 0:
            code, _ = run_cli(["preprocess", "--sc-counts", os.path.join(corpus, "sc_counts.csv"),
                               "--st-counts", os.path.join(corpus, "st_counts.csv"),
                               "--st-coords", os.path.join(corpus, "st_coords.csv"),
                               "--out", prep] + self.size["preprocess"])
        if code != 0:
            raise RuntimeError(f"desk_pipeline set-up failed with exit code {code}")
        config = os.path.join(work, "train_config.json")
        with open(config, "w") as fh:
            json.dump(self.size["schedule"], fh)
        return {"work": work, "corpus": corpus, "prep": prep, "config": config}

    def op(self, state, i):
        run_dir = os.path.join(state["work"], f"run{i}")
        with keep_saved_models({}) as models:
            elapsed, (code, _) = timed(run_cli, ["train", "--stage", "all",
                                                 "--data", state["prep"], "--run-dir", run_dir,
                                                 "--config", state["config"],
                                                 "--seed", self.seed])
        return elapsed, {"state": state, "run_dir": run_dir, "code": code, "models": models}

    def verify(self, record):
        problems, digests, quality = [], {}, {}
        if record["code"] != 0:
            return [f"train exit code {record['code']}"], digests, quality
        state, run_dir = record["state"], record["run_dir"]
        s = self.size["synth"]
        rows = {"z_sc2000": s["n_cells"], "z_sc500": s["n_cells"],
                "z_st500": s["grid_side"] ** 2, "z_st_merged": s["grid_side"] ** 2}
        for name, n in rows.items():
            check_latent(os.path.join(run_dir, "latents", f"{name}.csv"), n, problems, digests,
                         f"latents/{name}.csv")
        for stage in (1, 3):
            check_loss_fell(os.path.join(run_dir, "history", f"stage{stage}.csv"), problems)
        pred = os.path.join(run_dir, "predictions.csv")
        query = os.path.join(state["corpus"], "sc_query_counts.csv")
        code, _ = run_cli(["infer", "--run-dir", run_dir, "--query", query, "--out", pred,
                           "--allow-extra-genes"])
        if code != 0:
            problems.append(f"infer exit code {code}")
            return problems, digests, quality
        checked = check_predictions(pred, dataio.read_counts_csv(query),
                                    dataio.read_id_list(os.path.join(run_dir, "panel_shared.txt")),
                                    record["models"], problems, digests)
        if checked is None:
            return problems, digests, quality
        ids, values = checked
        regions = cli.read_regions_csv(os.path.join(state["corpus"], "regions.csv"))
        labels = dataio.read_labels_csv(os.path.join(state["corpus"], "truth_labels.csv"))
        hits = [sy.point_in_regions(regions, labels[cid], x, y)
                for cid, (x, y) in zip(ids, values[:, :2])]
        quality["region_hit_rate"] = float(np.mean(hits))
        return problems, digests, quality


class Slide4096(Workload):
    """Stage 3 alone on a large spot grid, anchored to a seeded frozen latent."""

    name = "slide_4096"

    def setup(self, work):
        s = self.size
        cfg = sy.SynthConfig(n_cells=1, n_genes=s["n_genes"], n_shared=s["n_shared"],
                             grid_side=s["grid_side"], seed=self.seed)
        st, labels, _ = sy.gen_st(cfg, sy.make_profiles(cfg))
        x = pp.panel_matrix(st.counts, pp.GenePanel(st.counts.col_ids))
        # frozen spot latent: one seeded centre per tissue type plus per-spot jitter
        tcfg = pl.TrainConfig(s3_epochs=s["s3_epochs"], seed=self.seed)
        rng = _rng(self.seed, _ANCHOR_STREAM)
        centres = rng.normal(size=(cfg.n_types, tcfg.latent_dim))
        types = np.array([int(label[4:]) for label in labels])
        codes = centres[types] + 0.3 * rng.normal(size=(len(types), tcfg.latent_dim))
        anchor = vae.LatentMatrix(codes, st.counts.row_ids, source="st_exp500").fix()
        return {"work": work, "cfg": tcfg, "x": x, "ids": st.counts.row_ids,
                "coords": st.coords, "anchor": anchor}

    def op(self, state, i):
        run = pl.RunDir(os.path.join(state["work"], f"run{i}"))
        elapsed, latent = timed(pl.stage3, state["cfg"], state["x"], state["ids"],
                                state["coords"], state["anchor"], run)
        return elapsed, {"run": run, "codes": latent.codes, "n": len(state["ids"])}

    def verify(self, record):
        problems, digests, quality = [], {}, {}
        run, n = record["run"], record["n"]
        written = check_latent(run.path("latents", "z_st_merged.csv"), n, problems, digests,
                               "latents/z_st_merged.csv")
        codes = record["codes"]
        if written is not None and not np.array_equal(written, codes):
            problems.append("z_st_merged.csv differs from the returned latent")
        if not np.all(np.isfinite(codes)):
            return problems + ["non-finite merged latent"], digests, quality
        check_loss_fell(run.path("history", "stage3.csv"), problems)
        with open(run.path("graph_edges.txt")) as fh:
            edges = np.array([[int(v) for v in line.split()] for line in fh], dtype=np.intp)
        rng = _rng(self.seed, _AUC_STREAM)
        count = min(self.size["auc_pairs"], len(edges))
        pos = edges[np.sort(rng.choice(len(edges), size=count, replace=False))]
        edge_set = {(int(a), int(b)) for a, b in edges}
        neg = []
        while len(neg) < count:
            a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
            if a != b and (a, b) not in edge_set:
                neg.append((a, b))
        quality["edge_auc"] = float(vg.edge_auc(codes, pos, np.array(neg)))
        return problems, digests, quality


class InferStream(Workload):
    """Sequential ``latentmap infer`` calls, one caller, each on a fresh query batch."""

    name = "infer_stream"

    def setup(self, work):
        s = self.size
        cfg = sy.SynthConfig(n_cells=s["n_cells"], n_genes=s["n_genes"], n_shared=s["n_shared"],
                             grid_side=s["grid_side"], seed=self.seed)
        sc, _, profiles = sy.gen_sc(cfg)
        st, _, _ = sy.gen_st(cfg, profiles)
        panel = pp.intersect_panel(sc, st.counts, n=s["panel"])
        x_sc = pp.panel_matrix(sc, panel)
        x_st = pp.panel_matrix(st.counts, panel)
        tcfg = pl.TrainConfig(**TINY_SCHEDULE, seed=self.seed)
        run = pl.RunDir(os.path.join(work, "run"))
        # checkpoint size depends only on the architecture, so a tiny schedule
        # gives the same infer-time IO as a full one; the panel matrix stands in
        # for the 2000-gene input of stage 1, which infer never reads
        with keep_saved_models({}) as models:
            z1 = pl.stage1(tcfg, x_sc, sc.row_ids, run)
            _, z_st = pl.stage2(tcfg, x_sc, sc.row_ids, x_st, st.counts.row_ids, z1, run)
            pl.stage3(tcfg, x_st, st.counts.row_ids, st.coords, z_st, run)
        dataio.write_id_list(run.path("panel_shared.txt"), panel.gene_ids)
        pool, _ = sy.gen_sc_query(cfg, profiles, s["pool"])
        return {"work": work, "run": run, "panel": panel.gene_ids, "pool": pool,
                "batches": _rng(self.seed, _BATCH_STREAM), "models": models}

    def op(self, state, i):
        pick = np.sort(state["batches"].choice(state["pool"].n_rows, size=self.size["batch"],
                                               replace=False))
        batch = state["pool"].take_rows(pick)
        query = os.path.join(state["work"], f"query{i}.csv")
        pred = os.path.join(state["work"], f"pred{i}.csv")
        _write_query(query, batch)
        elapsed, (code, _) = timed(run_cli, ["infer", "--run-dir", state["run"].root,
                                             "--query", query, "--out", pred,
                                             "--allow-extra-genes"])
        return elapsed, {"state": state, "batch": batch, "pred": pred, "code": code}

    def verify(self, record):
        problems, digests = [], {}
        if record["code"] != 0:
            return [f"infer exit code {record['code']}"], digests, {}
        state = record["state"]
        check_predictions(record["pred"], record["batch"], state["panel"], state["models"],
                          problems, digests)
        return problems, digests, {}


WORKLOADS = {w.name: w for w in (DeskPipeline, Slide4096, InferStream)}
