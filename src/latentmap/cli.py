"""Command-line entry point.

Commands: synth, preprocess, train, infer, bench, gradcheck.
Exit codes: 0 ok, 2 usage, 3 data or shape error (or an allocation that
fails), 4 dependency error, 5 numeric failure (``EXIT_CODES`` maps each
error class).

After each stage it completes, ``train`` has ``pipeline.RunDir`` record the
config, the shared panel and a manifest (input digests, seed, the preprocess
``target_sum``, tool version and the stage files on disk); resuming in the same
run directory verifies the digests, and ``infer`` reads the recorded panel and
``target_sum`` through ``RunDir``. ``train`` holds
an exclusive ``flock`` on the run directory, so two training commands never
share one; the kernel releases it when ``train`` exits or is killed, and
``infer`` reads without taking it.
"""

import argparse
import contextlib
import dataclasses
import fcntl
import hashlib
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from . import autodiff as ad
from . import benchmark as bm
from . import dataio
from . import discriminator
from . import pipeline as pl
from . import preprocess as pp
from . import synth as sy
from . import vae
from . import vgae as vg
from .errors import DataError, DependencyError, LatentMapError, NumericError, ShapeError

log = logging.getLogger("latentmap")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEPENDENCY = 4
EXIT_NUMERIC = 5
EXIT_CODES = {DataError: EXIT_DATA, ShapeError: EXIT_DATA, DependencyError: EXIT_DEPENDENCY,
              NumericError: EXIT_NUMERIC}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def run_lock(run_dir):
    """Hold an exclusive ``flock`` on the run directory itself for the block.

    The kernel drops the lock when its descriptor closes or the process
    dies, however it dies, so nothing is written and nothing is left behind.
    """
    dataio.make_dirs(run_dir)
    with contextlib.ExitStack() as held:
        try:
            fd = os.open(run_dir, os.O_RDONLY)
            held.callback(os.close, fd)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DependencyError(f"run directory {run_dir} is locked: another "
                                  "train command is using it") from None
        except OSError as exc:
            raise DataError(f"{run_dir}: cannot lock: {exc.strerror or exc}") from exc
        yield


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

REGION_HEADER = ("label", "xmin", "xmax", "ymin", "ymax")


def cmd_synth(args):
    if args.n_query < 0:
        raise DataError(f"--n-query must be >= 0, got {args.n_query}")
    cfg = sy.SynthConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(sy.SynthConfig)})
    dataio.make_dirs(args.out)
    sc, sc_labels, profiles = sy.gen_sc(cfg)
    st, st_labels, regions = sy.gen_st(cfg, profiles)
    dataio.write_counts_csv(os.path.join(args.out, "sc_counts.csv"), sc)
    dataio.write_counts_csv(os.path.join(args.out, "st_counts.csv"), st.counts)
    dataio.write_coords_csv(os.path.join(args.out, "st_coords.csv"),
                            st.counts.row_ids, st.coords)
    pairs = list(zip(sc.row_ids, sc_labels)) + list(zip(st.counts.row_ids, st_labels))
    if args.n_query > 0:
        query, q_labels = sy.gen_sc_query(cfg, profiles, args.n_query)
        dataio.write_counts_csv(os.path.join(args.out, "sc_query_counts.csv"), query)
        pairs += list(zip(query.row_ids, q_labels))
    dataio.write_labels_csv(os.path.join(args.out, "truth_labels.csv"), pairs)
    dataio.write_table(os.path.join(args.out, "regions.csv"), REGION_HEADER,
                       ([r.label, r.xmin, r.xmax, r.ymin, r.ymax] for r in regions))
    log.info("synthetic corpus written to %s (%d cells, %d spots)",
             args.out, cfg.n_cells, cfg.n_spots)
    return EXIT_OK


def read_regions_csv(path):
    """Regions CSV with header label,xmin,xmax,ymin,ymax -> [synth.Region]."""
    return dataio.read_table(path, lambda row: sy.Region(row[0], *map(float, row[1:])),
                             header=REGION_HEADER)[1]


def cmd_preprocess(args):
    """QC both count matrices and pick the gene panels; write them for ``train``.

    The outputs are the QC-filtered integer counts (``sc_counts_qc.csv``:
    kept cells x the union of both panels; ``st_counts_qc.csv``: kept spots x
    the shared panel), the kept spots' coordinates, both panels in rank
    order and ``summary.json`` with the drop counts and ``target_sum``.
    Nothing normalized is written: ``train`` normalizes with
    ``pp.panel_matrix``, as ``infer`` does.
    """
    if args.n_hvg < 1:
        raise DataError(f"--n-hvg must be >= 1, got {args.n_hvg!r}")
    sc = dataio.read_counts_csv(args.sc_counts)
    st = dataio.read_counts_csv(args.st_counts)
    spot_ids, coords = dataio.read_coords_csv(args.st_coords)
    dataio.check_spot_ids(args.st_counts, st.row_ids, args.st_coords, spot_ids)

    sc_qc, sc_summary = pp.run_qc(sc, min_genes=args.min_genes, min_cells=args.min_cells,
                                  max_mito_ribo=args.max_mito_ribo)
    # spots have a limited panel, so the per-spot gene floor does not apply
    st_qc, st_summary = pp.run_qc(st, min_genes=0, min_cells=args.min_cells,
                                  max_mito_ribo=args.max_mito_ribo)

    # one ranking serves both panels
    ranked = pp.rank_genes(pp.normalize_log1p(sc_qc, args.target_sum), sc_qc.col_ids)
    panel_big = pp.GenePanel(ranked[:args.n_hvg])
    panel_shared = pp.intersect_panel(sc_qc, st_qc, n=args.n_shared, ranked=ranked)
    in_panels = set(panel_big.gene_ids) | set(panel_shared.gene_ids)
    # train normalizes each matrix over its panel, which needs counts on it
    sc_qc, sc_empty = pp.drop_empty_rows(sc_qc, panel_big, panel_shared)
    st_qc, st_empty = pp.drop_empty_rows(st_qc, panel_shared)
    if sc_empty or st_empty:
        log.warning("dropping %d cell(s) and %d spot(s) with no counts on a panel",
                    sc_empty, st_empty)
    keep = set(st_qc.row_ids)
    coords = coords[[i for i, r in enumerate(st.row_ids) if r in keep]]

    dataio.make_dirs(args.out)
    out = lambda name: os.path.join(args.out, name)
    dataio.write_counts_csv(out("sc_counts_qc.csv"), sc_qc.take_cols(
        [i for i, g in enumerate(sc_qc.col_ids) if g in in_panels]))
    dataio.write_counts_csv(out("st_counts_qc.csv"), pp.subset_counts(st_qc, panel_shared))
    dataio.write_coords_csv(out("st_coords.csv"), st_qc.row_ids, coords)
    dataio.write_id_list(out("panel_hvg2000.txt"), panel_big.gene_ids)
    dataio.write_id_list(out("panel_shared500.txt"), panel_shared.gene_ids)
    summary = {
        "sc": {"cells_in": sc.n_rows, "cells_out": sc_qc.n_rows,
               "genes_in": sc.n_cols, "genes_out": sc_qc.n_cols,
               "cells_dropped_low_genes": sc_summary.cells_low_genes,
               "genes_dropped_low_cells": sc_summary.genes_low_cells,
               "cells_dropped_mito_ribo": sc_summary.cells_mito_ribo},
        "st": {"spots_in": st.n_rows, "spots_out": st_qc.n_rows,
               "genes_in": st.n_cols, "genes_out": st_qc.n_cols,
               "genes_dropped_low_cells": st_summary.genes_low_cells,
               "spots_dropped_mito_ribo": st_summary.cells_mito_ribo},
        "panel_hvg": len(panel_big),
        "panel_shared": len(panel_shared),
        "target_sum": args.target_sum,
    }
    dataio.write_json(out("summary.json"), summary)
    log.info("preprocessed artifacts written to %s", args.out)
    return EXIT_OK


def cmd_train(args):
    cfg = pl.TrainConfig.load(args.config) if args.config else pl.TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
    inputs, panel, target_sum = pl.load_pipeline_data(args.data, stages, cfg)
    digests = {name: file_digest(os.path.join(args.data, name)) for name in pl.PREPROCESSED}

    with run_lock(args.run_dir):
        run = pl.RunDir(args.run_dir)
        run.verify_manifest(digests, cfg, args.force)
        for stage in stages:
            log.info("running stage %d", stage)
            pl.run_stage(stage, cfg, inputs, run, force=args.force)
            # recorded after the stage: a stage that fails leaves the records as they were
            run.write_records(cfg, panel, digests, target_sum)
    return EXIT_OK


def cmd_infer(args):
    run = pl.RunDir(args.run_dir)
    panel, panel_path = run.read_panel()
    query = dataio.read_counts_csv(args.query)
    missing = sorted(set(panel.gene_ids) - set(query.col_ids))
    extra = [] if args.allow_extra_genes else sorted(set(query.col_ids) - set(panel.gene_ids))
    if missing or extra:
        found = {"missing": missing, "extra": extra}
        raise DataError(f"{args.query}: genes differ from the run's panel {panel_path}: "
                        + ", ".join(f"{kind} {ids[:10]}" for kind, ids in found.items() if ids))
    target_sum = run.target_sum()
    try:
        x = pp.panel_matrix(query, panel, target_sum=target_sum)
    except DataError as exc:
        raise DataError(f"{args.query} on {panel_path}: {exc}") from None
    x_hat, coords_norm, transform = pl.infer(run, x)
    dataio.write_matrix_csv(args.out, query.row_ids, ["x_hat", "y_hat"] + panel.gene_ids,
                            np.hstack([transform.denormalize(coords_norm), x_hat]))
    cx, cy = (float(v) for v in transform.center)
    print(f"coordinate frame: normalized * {transform.scale!r} + center ({cx!r}, {cy!r})")
    log.info("predictions for %d cells written to %s", query.n_rows, args.out)
    return EXIT_OK


def cmd_bench(args):
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    ids, codes = dataio.read_latent_csv(args.latent)
    n = len(ids)
    # the split flags and --k are checked against the latent's rows before any work
    for flag, value, check in (("--folds", args.folds, bm.check_folds),
                               ("--holdout", args.holdout, bm.holdout_size)):
        try:
            if value is not None:
                check(n, value)
        except DataError as exc:
            raise DataError(f"{flag} {value} on {args.latent}: {exc}") from None
    # every k votes over the k-fold splits' training rows, the first also over the hold-out's
    fold_rows = bm.train_rows(n, folds=args.folds)
    splits = [(k, fold_rows) for k in args.k or ()]
    if args.k and args.holdout is not None:
        splits.append((args.k[0], bm.train_rows(n, fraction=args.holdout)))
    for k, rows in splits:
        try:
            bm.check_k(k, n, rows)
        except DataError as exc:
            raise DataError(f"--k {k} on {args.latent}: {exc}") from None
    labels_by_id = dataio.read_labels_csv(args.labels)
    unmatched = [i for i in ids if i not in labels_by_id]
    if unmatched:
        raise DataError(f"{args.latent}: ids without labels in {args.labels}: {unmatched[:10]}")
    labels = [labels_by_id[i] for i in ids]
    emb = bm.LabeledEmbedding(codes, labels)
    k_values = args.k or [k for k in bm.default_k_values(len(emb.vocab)) if k <= fold_rows]
    sweep = bm.sweep_k(emb, k_values, folds=args.folds, seed=args.seed)
    lines = [f"latent: {args.latent}", f"n: {emb.n}", f"classes: {len(emb.vocab)}",
             f"folds: {args.folds}", f"seed: {args.seed}", ""]
    for k, report in sweep:
        fold_str = " ".join(f"{a:.6f}" for a in report.fold_accuracies)
        lines.append(f"k={k} mean={report.mean:.6f} std={report.std:.6f} folds=[{fold_str}]")
        for w in report.warnings:
            lines.append(f"  warning: {w}")
    if args.holdout is not None:
        acc = bm.holdout_accuracy(emb, k_values[0], fraction=args.holdout, seed=args.seed)
        lines.append(f"holdout fraction={args.holdout} k={k_values[0]} accuracy={acc:.6f}")
    first_k, first_report = sweep[0]
    lines.append(f"ari(k={first_k}, out-of-fold predictions): "
                 f"{bm.ari(labels, first_report.oof_predictions):.6f}")
    report_text = "\n".join(lines) + "\n"
    dataio.make_dirs(args.out)  # only once every flag has been checked
    out = lambda name: os.path.join(args.out, name)
    dataio.atomic_write(out("report.txt"), report_text)
    dataio.write_table(out("confusion.csv"), ["true\\pred", *emb.vocab],
                       ([label, *row] for label, row in
                        zip(emb.vocab, first_report.confusion.astype(int).tolist())))
    dataio.write_table(out("accuracy_vs_k.csv"), ["k", "mean_accuracy", "std"],
                       ([k, report.mean, report.std] for k, report in sweep))
    sys.stdout.write(report_text)
    return EXIT_OK


def _draw_biases(params, rng):
    """Set every bias in ``params`` to N(0, 0.1) draws; returns ``params``.

    Zero biases can put a ReLU input exactly at 0, where the subgradient
    the backward pass uses and a central difference disagree.
    """
    for name, t in params.items():
        if name.endswith(".b"):
            t.data[...] = rng.normal(0.0, 0.1, size=t.shape)
    return params


def gradcheck_suite(seed):
    """Small-instance gradient checks of the objectives training uses; returns name -> error.

    ``stage2`` checks the joint objective of both sides (the VAE terms, the
    cell anchor, and the adversarial terms toward both labels through the
    frozen discriminator) with one VAE, one matrix and one noise draw as
    both sides, ``stage3`` the VGAE terms and the anchor, both with every
    loss weight at 1, and ``discriminator`` its loss. The anchors are drawn
    after every instance.
    """
    rng = np.random.default_rng(seed)
    cfg = pl.TrainConfig(latent_dim=4, w_anchor_sc=1.0, w_adv=1.0, w_anchor_st=1.0,
                         w_recon_exp=1.0, w_recon_sp=1.0, w_recon_adj=1.0, kl_weight=1.0)

    p_vae = vae.init_vae(vae.VaeConfig(n_genes=7, latent_dim=4, enc_hidden=(6, 5)), rng)
    x = rng.uniform(0.1, 2.0, size=(5, 7))
    noise = rng.normal(size=(5, 4))
    vae_params = _draw_biases(p_vae.params(), rng)

    g = vg.build_knn_graph(rng.uniform(0, 4, size=(6, 2)), k=2)
    p_vgae = vg.init_vgae(vg.VgaeConfig(n_genes=7, latent_dim=4, exp_hidden=(6,),
                                        gcn_hidden=5, coord_hidden=(4,)), rng)
    x_exp = rng.uniform(0.1, 2.0, size=(6, 7))
    x_sp = rng.normal(size=(6, 2))
    noise_g = rng.normal(size=(6, 4))
    neg = vg.sample_negatives(g.keys, g.n, len(g.keys),
                              np.random.default_rng(int(rng.integers(2 ** 32))))
    vgae_params = _draw_biases(p_vgae.params(), rng)

    p_disc = discriminator.init_discriminator(4, rng, hidden=(8, 8, 8))
    z = rng.normal(size=(6, 4))
    labels = rng.integers(0, 2, size=(6, 1)).astype(float)
    disc_params = _draw_biases(p_disc.params(), rng)
    anchor_sc = rng.normal(size=(5, 4))
    anchor_st = rng.normal(size=(6, 4))

    return {
        "stage2": ad.grad_check(lambda: pl._generator_terms(
            cfg, (p_vae, p_vae), (x, x), (noise, noise), anchor_sc, p_disc)["total"], vae_params),
        "stage3": ad.grad_check(lambda: pl._stage3_terms(
            cfg, p_vgae, g, x_exp, x_sp, anchor_st, noise_g, neg)["total"], vgae_params),
        "discriminator": ad.grad_check(lambda: discriminator.disc_loss(p_disc, z, labels),
                                       disc_params),
    }


def cmd_gradcheck(args):
    if args.seed < 0:
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise DataError(f"--tolerance must be a finite number > 0, got {args.tolerance!r}")
    results = gradcheck_suite(seed=args.seed)
    worst = max(results.values())
    for name, err in sorted(results.items()):
        status = "ok" if err < args.tolerance else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
    if worst >= args.tolerance:
        raise NumericError(f"gradient check failed: max relative error {worst:.3e} "
                           f">= {args.tolerance}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="latentmap",
                                     description="latent mapping between expression-only "
                                                 "and spatial transcriptomics data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    # one flag per SynthConfig field, with its type and default
    for f in dataclasses.fields(sy.SynthConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default,
                       choices=sy.LAYOUTS if f.name == "layout" else None)
    p.add_argument("--n-query", type=int, default=0,
                   help="also emit held-out query cells for inference tests")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="QC and build gene panels")
    p.add_argument("--sc-counts", required=True)
    p.add_argument("--st-counts", required=True)
    p.add_argument("--st-coords", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-genes", type=int, default=200)
    p.add_argument("--min-cells", type=int, default=60)
    p.add_argument("--max-mito-ribo", type=float, default=0.2)
    p.add_argument("--n-hvg", type=int, default=2000)
    p.add_argument("--n-shared", type=int, default=500)
    p.add_argument("--target-sum", type=float, default=pp.TARGET_SUM)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="run the training stages")
    p.add_argument("--stage", choices=["1", "2", "3", "all"], required=True)
    p.add_argument("--data", required=True, help="preprocess output directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--force", action="store_true",
                   help="allow overwriting completed stage artifacts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="impute coordinates and panel expression")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--query", required=True, help="query counts CSV")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--allow-extra-genes", action="store_true",
                   help="accept queries measured on a superset of the panel; "
                        "extra genes are dropped before normalization")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="kNN cross-validation benchmark on a latent CSV")
    p.add_argument("--latent", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, nargs="*", default=None)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--holdout", type=float, default=None,
                   help="also report a single train/test split at this fraction")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the training objectives")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the random instances, weights and biases")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LatentMapError as exc:
        log.error("%s", exc)
        return EXIT_CODES[type(exc)]
    except MemoryError as exc:  # a model or input too large for this machine
        log.error("out of memory: %s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
