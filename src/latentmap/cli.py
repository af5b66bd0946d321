"""Command-line entry point.

Commands: synth, preprocess, train, infer, bench, gradcheck.
Exit codes: 0 ok, 2 usage, 3 data error, 4 dependency error, 5 numeric failure.

Every training run records a manifest (config snapshot, input digests, seed,
tool version) at run start; resuming in the same run directory verifies the
digests. A lock file keeps two commands out of one run directory.
"""

import argparse
import contextlib
import hashlib
import logging
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
from .errors import DataError, DependencyError, NumericError

log = logging.getLogger("latentmap")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEPENDENCY = 4
EXIT_NUMERIC = 5


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _lock_owner_gone(lock_path):
    """True when the lock names a PID that no longer exists on this host."""
    try:
        with open(lock_path) as fh:
            pid = int(fh.read().strip())
    except (OSError, ValueError):
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass  # e.g. EPERM: the process exists under another user
    return False


@contextlib.contextmanager
def run_lock(run_dir):
    os.makedirs(run_dir, exist_ok=True)
    lock_path = os.path.join(run_dir, ".lock")
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock_path, flags)
    except FileExistsError:
        if not _lock_owner_gone(lock_path):
            raise DependencyError(
                f"run directory is locked ({lock_path}); another command is active "
                "or a previous one crashed (delete the lock to recover)") from None
        log.warning("removing stale lock %s: its process no longer exists", lock_path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(lock_path)
        try:
            fd = os.open(lock_path, flags)
        except FileExistsError:
            raise DependencyError(
                f"run directory is locked ({lock_path}); another command took "
                "it while a stale lock was being replaced") from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.remove(lock_path)


def write_manifest(run_dir, config, inputs, artifacts, seed):
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "input_digests": {os.path.basename(p): file_digest(p) for p in inputs},
        "artifacts": sorted(set(artifacts)),
    }
    dataio.write_json(os.path.join(run_dir, "manifest.json"), manifest)
    return manifest


def verify_manifest(run_dir, inputs):
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    manifest = dataio.read_json(path)
    for p in inputs:
        name = os.path.basename(p)
        recorded = manifest.get("input_digests", {}).get(name)
        if recorded is not None and recorded != file_digest(p):
            raise DataError(f"input {name} changed since the manifest was written "
                            f"(digest mismatch); use a fresh run directory")
    return manifest


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

REGION_HEADER = ("label", "xmin", "xmax", "ymin", "ymax")


def cmd_synth(args):
    cfg = sy.SynthConfig(n_cells=args.n_cells, n_genes=args.n_genes,
                         n_shared=args.n_shared, n_types=args.n_types,
                         grid_side=args.grid_side, noise=args.noise,
                         layout=args.layout, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
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
    sc = dataio.read_counts_csv(args.sc_counts)
    st = dataio.read_counts_csv(args.st_counts)
    spot_ids, coords = dataio.read_coords_csv(args.st_coords)
    if spot_ids != st.row_ids:
        raise DataError("st counts and coordinates disagree on spot ids")

    sc_qc, sc_summary = pp.run_qc(sc, min_genes=args.min_genes, min_cells=args.min_cells,
                                  max_mito_ribo=args.max_mito_ribo)
    # spots have a limited panel, so the per-spot gene floor does not apply
    st_qc, st_summary = pp.run_qc(st, min_genes=0, min_cells=args.min_cells,
                                  max_mito_ribo=args.max_mito_ribo)
    keep = {r for r in st_qc.row_ids}
    coord_keep = [i for i, r in enumerate(st.row_ids) if r in keep]
    coords = coords[coord_keep]

    panel_big = pp.select_hvg(pp.normalize_log1p(sc_qc, args.target_sum), sc_qc.col_ids,
                              min(args.n_hvg, sc_qc.n_cols))
    panel_shared = pp.intersect_panel(sc_qc, st_qc, n=args.n_shared,
                                      target_sum=args.target_sum)
    x_big = pp.panel_matrix(sc_qc, panel_big, args.target_sum)
    x_sc = pp.panel_matrix(sc_qc, panel_shared, args.target_sum)
    x_st = pp.panel_matrix(st_qc, panel_shared, args.target_sum)

    os.makedirs(args.out, exist_ok=True)
    out = lambda name: os.path.join(args.out, name)
    dataio.write_matrix_csv(out("x_sc2000.csv"), sc_qc.row_ids, panel_big.gene_ids, x_big)
    dataio.write_matrix_csv(out("x_sc500.csv"), sc_qc.row_ids, panel_shared.gene_ids, x_sc)
    dataio.write_matrix_csv(out("x_st500.csv"), st_qc.row_ids, panel_shared.gene_ids, x_st)
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


def _train_inputs(data_dir):
    names = ["x_sc2000.csv", "x_sc500.csv", "x_st500.csv", "st_coords.csv",
             "panel_shared500.txt"]
    return [os.path.join(data_dir, n) for n in names]


def cmd_train(args):
    cfg = pl.TrainConfig.load(args.config) if args.config else pl.TrainConfig()
    if args.seed is not None:
        cfg = pl.TrainConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
    inputs = _train_inputs(args.data)
    for p in inputs:
        if not os.path.exists(p):
            raise DependencyError(f"missing preprocessed artifact: {p}")

    with run_lock(args.run_dir):
        manifest = verify_manifest(args.run_dir, inputs)
        if manifest is not None and manifest.get("config") != cfg.to_dict() and not args.force:
            raise DependencyError(
                "config differs from the one recorded in this run directory's "
                "manifest; use a fresh run directory or --force")
        run = pl.RunDir(args.run_dir)
        run.ensure_layout()
        cfg.save(run.path("config.json"))
        data = pl.load_pipeline_data(args.data)
        # an incremental run keeps the artifacts of the stages recorded before it
        artifacts = list(manifest.get("artifacts", [])) if manifest else []
        for stage in stages:
            artifacts += pl.CHECKPOINTS[stage] + pl.LATENTS[stage] + [f"stage{stage}.csv"]
        write_manifest(args.run_dir, cfg.to_dict(), inputs, artifacts, cfg.seed)
        dataio.write_id_list(run.path("panel_shared.txt"), data.panel_shared)
        for stage in stages:
            log.info("running stage %d", stage)
            pl.run_stage(stage, cfg, data, run, force=args.force)
    return EXIT_OK


def cmd_infer(args):
    run = pl.RunDir(args.run_dir)
    panel_path = run.path("panel_shared.txt")
    if not os.path.exists(panel_path):
        raise DependencyError(f"missing artifact: {panel_path}")
    panel = dataio.read_id_list(panel_path)
    query = dataio.read_counts_csv(args.query)
    missing = sorted(set(panel) - set(query.col_ids))
    extra = sorted(set(query.col_ids) - set(panel))
    if missing or (extra and not args.allow_extra_genes):
        raise DataError(f"query panel mismatch: missing {missing[:10]}, extra {extra[:10]}")
    x = pp.panel_matrix(query, pp.GenePanel(panel), target_sum=args.target_sum)
    x_hat, coords_norm, transform = pl.infer(run, x, panel, panel)
    dataio.write_matrix_csv(args.out, query.row_ids, ["x_hat", "y_hat"] + list(panel),
                            np.hstack([transform.denormalize(coords_norm), x_hat]))
    cx, cy = (float(v) for v in transform.center)
    print(f"coordinate frame: normalized * {transform.scale!r} + center ({cx!r}, {cy!r})")
    log.info("predictions for %d cells written to %s", query.n_rows, args.out)
    return EXIT_OK


def cmd_bench(args):
    ids, codes = dataio.read_latent_csv(args.latent)
    labels_by_id = dataio.read_labels_csv(args.labels)
    unmatched = [i for i in ids if i not in labels_by_id]
    if unmatched:
        raise DataError(f"latent ids without labels: {unmatched[:10]}")
    labels = [labels_by_id[i] for i in ids]
    emb = bm.LabeledEmbedding(codes, labels)
    k_values = args.k if args.k else bm.default_k_values(len(emb.vocab))
    os.makedirs(args.out, exist_ok=True)

    sweep = bm.sweep_k(emb, k_values, folds=args.folds, seed=args.seed)
    lines = [f"latent: {args.latent}", f"n: {emb.n}", f"classes: {len(emb.vocab)}",
             f"folds: {args.folds}", f"seed: {args.seed}", ""]
    for k, report in sweep:
        fold_str = " ".join(f"{a:.6f}" for a in report.fold_accuracies)
        lines.append(f"k={k} mean={report.mean:.6f} std={report.std:.6f} folds=[{fold_str}]")
        for w in report.warnings:
            lines.append(f"  warning: {w}")
    if args.holdout:
        acc = bm.holdout_accuracy(emb, k_values[0], fraction=args.holdout, seed=args.seed)
        lines.append(f"holdout fraction={args.holdout} k={k_values[0]} accuracy={acc:.6f}")
    first_k, first_report = sweep[0]
    lines.append(f"ari(k={first_k}, out-of-fold predictions): "
                 f"{bm.ari(labels, first_report.oof_predictions):.6f}")
    report_text = "\n".join(lines) + "\n"
    out = lambda name: os.path.join(args.out, name)
    dataio.atomic_write(out("report.txt"), report_text)
    dataio.write_table(out("confusion.csv"), ["true\\pred", *first_report.vocab],
                       ([label, *row] for label, row in
                        zip(first_report.vocab, first_report.confusion.astype(int).tolist())))
    dataio.write_table(out("accuracy_vs_k.csv"), ["k", "mean_accuracy", "std"],
                       ([k, report.mean, report.std] for k, report in sweep))
    sys.stdout.write(report_text)
    return EXIT_OK


def gradcheck_suite(seed=0):
    """Small-instance gradient checks for each network; returns name -> error."""
    rng = np.random.default_rng(seed)
    results = {}

    p_vae = vae.init_vae(vae.VaeConfig(n_genes=7, latent_dim=4, enc_hidden=(6, 5)), rng)
    x = rng.uniform(0.1, 2.0, size=(5, 7))
    noise = rng.normal(size=(5, 4))
    results["vae"] = ad.grad_check(lambda: vae.vae_loss(p_vae, x, noise, beta=1.0)[0],
                                   p_vae.params())

    g = vg.build_knn_graph(rng.uniform(0, 4, size=(6, 2)), k=2)
    p_vgae = vg.init_vgae(vg.VgaeConfig(n_genes=7, latent_dim=4, exp_hidden=(6,),
                                        gcn_hidden=5, dec_hidden=(6,), coord_hidden=(4,)),
                          rng)
    x_exp = rng.uniform(0.1, 2.0, size=(6, 7))
    x_sp = rng.normal(size=(6, 2))
    noise_g = rng.normal(size=(6, 4))
    neg_seed = int(rng.integers(2 ** 32))
    # a fresh generator per call fixes the negative sample, so the loss is a
    # deterministic function of the parameters
    results["vgae"] = ad.grad_check(
        lambda: vg.vgae_loss(p_vgae, g, x_exp, x_sp, noise_g, vg.VgaeLossWeights(),
                             np.random.default_rng(neg_seed))[0],
        p_vgae.params())

    p_disc = discriminator.init_discriminator(4, rng, hidden=(8, 8, 8))
    z = rng.normal(size=(6, 4))
    labels = rng.integers(0, 2, size=6).astype(float)
    results["discriminator"] = ad.grad_check(
        lambda: ad.bce_with_logits(discriminator.disc_forward(p_disc, z), labels),
        p_disc.params())
    return results


def cmd_gradcheck(args):
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cells", type=int, default=1000)
    p.add_argument("--n-genes", type=int, default=2000)
    p.add_argument("--n-shared", type=int, default=500)
    p.add_argument("--n-types", type=int, default=4)
    p.add_argument("--grid-side", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--layout", choices=["quadrants", "stripes"], default="quadrants")
    p.add_argument("--n-query", type=int, default=0,
                   help="also emit held-out query cells for inference tests")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="QC, normalize, and build gene panels")
    p.add_argument("--sc-counts", required=True)
    p.add_argument("--st-counts", required=True)
    p.add_argument("--st-coords", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-genes", type=int, default=200)
    p.add_argument("--min-cells", type=int, default=60)
    p.add_argument("--max-mito-ribo", type=float, default=0.2)
    p.add_argument("--n-hvg", type=int, default=2000)
    p.add_argument("--n-shared", type=int, default=500)
    p.add_argument("--target-sum", type=float, default=1e4)
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
    p.add_argument("--target-sum", type=float, default=1e4)
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

    p = sub.add_parser("gradcheck", help="finite-difference checks on all networks")
    p.add_argument("--seed", type=int, default=1,
                   help="default chosen so no ReLU kink sits within the probe step")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except DependencyError as exc:
        log.error("%s", exc)
        return EXIT_DEPENDENCY
    except NumericError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
