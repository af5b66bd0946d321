import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from latentmap import cli, dataio, pipeline as pl, preprocess as pp
from latentmap.errors import DataError, DependencyError
from latentmap.preprocess import CountMatrix


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small synthetic corpus on disk, via the synth command."""
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(["synth", "--out", str(out), "--seed", "9", "--n-cells", "80",
                   "--n-genes", "120", "--n-shared", "40", "--grid-side", "8",
                   "--n-query", "10"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def data_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    rc = cli.main(["preprocess",
                   "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                   "--st-counts", str(corpus_dir / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"),
                   "--out", str(out),
                   "--min-genes", "30", "--min-cells", "10",
                   "--n-hvg", "80", "--n-shared", "30"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg = pl.TrainConfig(s1_epochs=25, s2_epochs=3, s2b_epochs=2, s3_epochs=25,
                         latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01, seed=4)
    cfg.save(path)
    return path


@pytest.fixture(scope="module")
def trained_run(data_dir, tiny_config, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    rc = cli.main(["train", "--stage", "all", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == 0
    return run_dir


def test_synth_writes_expected_files(corpus_dir):
    for name in ("sc_counts.csv", "st_counts.csv", "st_coords.csv",
                 "truth_labels.csv", "regions.csv", "sc_query_counts.csv"):
        assert (corpus_dir / name).exists(), name


def test_synth_regions_csv_golden_bytes(corpus_dir):
    assert (corpus_dir / "regions.csv").read_bytes() == (
        b"label,xmin,xmax,ymin,ymax\n"
        b"type0,-0.5,3.5,-0.5,3.5\n"
        b"type1,3.5,7.5,-0.5,3.5\n"
        b"type2,-0.5,3.5,3.5,7.5\n"
        b"type3,3.5,7.5,3.5,7.5\n")


def test_regions_csv_short_row_names_file_and_line(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("label,xmin,xmax,ymin,ymax\ntype0,-0.5,3.5,-0.5,3.5\ntype1,3.5,7.5\n")
    with pytest.raises(DataError, match=r"regions.csv:3: expected 5 fields, got 3"):
        cli.read_regions_csv(path)


def test_synth_deterministic(tmp_path):
    args = ["--seed", "3", "--n-cells", "30", "--n-genes", "50", "--n-shared", "20",
            "--grid-side", "8"]
    assert cli.main(["synth", "--out", str(tmp_path / "a")] + args) == 0
    assert cli.main(["synth", "--out", str(tmp_path / "b")] + args) == 0
    for name in ("sc_counts.csv", "st_counts.csv", "st_coords.csv", "truth_labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_preprocess_outputs_and_summary(data_dir):
    for name in ("x_sc2000.csv", "x_sc500.csv", "x_st500.csv", "st_coords.csv",
                 "panel_hvg2000.txt", "panel_shared500.txt", "summary.json"):
        assert (data_dir / name).exists(), name
    summary = json.loads((data_dir / "summary.json").read_text())
    assert summary["panel_shared"] == 30
    # drop counts consistent with matrix dimensions
    assert summary["sc"]["cells_in"] - summary["sc"]["cells_dropped_low_genes"] - \
        summary["sc"]["cells_dropped_mito_ribo"] == summary["sc"]["cells_out"]


def test_preprocess_summary_json_golden_bytes(data_dir):
    assert (data_dir / "summary.json").read_bytes() == b"""{
  "panel_hvg": 80,
  "panel_shared": 30,
  "sc": {
    "cells_dropped_low_genes": 0,
    "cells_dropped_mito_ribo": 0,
    "cells_in": 80,
    "cells_out": 80,
    "genes_dropped_low_cells": 0,
    "genes_in": 120,
    "genes_out": 120
  },
  "st": {
    "genes_dropped_low_cells": 0,
    "genes_in": 40,
    "genes_out": 40,
    "spots_dropped_mito_ribo": 0,
    "spots_in": 64,
    "spots_out": 64
  },
  "target_sum": 10000.0
}
"""


def test_preprocess_passthrough_thresholds(corpus_dir, tmp_path):
    out = tmp_path / "prep0"
    rc = cli.main(["preprocess",
                   "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                   "--st-counts", str(corpus_dir / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"),
                   "--out", str(out), "--min-genes", "0", "--min-cells", "0",
                   "--max-mito-ribo", "1.0", "--n-hvg", "120", "--n-shared", "40"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sc"]["cells_in"] == summary["sc"]["cells_out"]
    assert summary["sc"]["genes_in"] == summary["sc"]["genes_out"]


def test_preprocess_drop_counts_match_recount(corpus_dir, data_dir):
    summary = json.loads((data_dir / "summary.json").read_text())
    sc = dataio.read_counts_csv(corpus_dir / "sc_counts.csv")
    expressed = (sc.counts > 0).sum(axis=1)
    assert summary["sc"]["cells_dropped_low_genes"] == int((expressed < 30).sum())


def test_preprocess_unparseable_file_reports_line(tmp_path, corpus_dir):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,g0\nc0,notanumber\n")
    rc = cli.main(["preprocess", "--sc-counts", str(bad),
                   "--st-counts", str(corpus_dir / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA


def test_train_stage3_before_2_dependency_error(data_dir, tiny_config, tmp_path):
    rc = cli.main(["train", "--stage", "3", "--data", str(data_dir),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY


def test_train_missing_data_dependency_error(tiny_config, tmp_path):
    rc = cli.main(["train", "--stage", "1", "--data", str(tmp_path / "nope"),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY


def test_trained_run_layout(trained_run):
    run = pl.RunDir(trained_run)
    for stage in (1, 2, 3):
        assert run.stage_complete(stage)
    assert (trained_run / "manifest.json").exists()
    assert (trained_run / "config.json").exists()
    assert (trained_run / "panel_shared.txt").exists()
    assert (trained_run / "graph_edges.txt").exists()
    assert not (trained_run / ".lock").exists()  # released


# history columns that count steps; every other column is a float
_INT_COLUMNS = {"epoch", "outer", "inner", "disc_steps"}


def test_run_dir_text_files_golden_bytes(trained_run, data_dir):
    # histories: integer step columns, every float as its repr, "\n" line ends
    for stage in (1, 2, 3):
        path = trained_run / "history" / f"stage{stage}.csv"
        header, rows = pl.read_history(path)
        lines = [",".join(header)] + [
            ",".join(str(int(v)) if name in _INT_COLUMNS else repr(v)
                     for name, v in zip(header, row))
            for row in rows]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    genes = dataio.read_id_list(data_dir / "panel_shared500.txt")
    panel = "".join(f"{g}\n" for g in genes).encode()
    assert (data_dir / "panel_shared500.txt").read_bytes() == panel
    assert (trained_run / "panel_shared.txt").read_bytes() == panel
    config = (trained_run / "config.json").read_bytes()
    assert config == (json.dumps(json.loads(config), indent=2, sort_keys=True) + "\n").encode()


def test_train_truncated_manifest_exits_3_naming_it(data_dir, tiny_config, tmp_path, caplog):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text('{"artifacts": ["checkpoints/vae_sc2000.json"')
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert str(run_dir / "manifest.json") in caplog.text
    assert not (run_dir / ".lock").exists()


@pytest.mark.parametrize("content", [b'{"s1_epochs": 3, "s2_', b'{"s1_epochs": \xff}', b"5"],
                         ids=["truncated", "not-utf8", "not-an-object"])
def test_train_corrupt_config_exits_3_naming_it(data_dir, tmp_path, caplog, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(tmp_path / "run"), "--config", str(config)])
    assert rc == cli.EXIT_DATA
    assert str(config) in caplog.text


def test_manifest_contents(trained_run, data_dir):
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["tool_version"]
    assert set(manifest["input_digests"]) == {
        "x_sc2000.csv", "x_sc500.csv", "x_st500.csv", "st_coords.csv",
        "panel_shared500.txt"}
    digest = cli.file_digest(str(data_dir / "x_sc500.csv"))
    assert manifest["input_digests"]["x_sc500.csv"] == digest
    assert {"vgae_st.json", "vgae_st.npz"} <= set(manifest["artifacts"])


def test_manifest_lists_artifacts_of_incremental_runs(data_dir, tiny_config, tmp_path):
    run_dir = tmp_path / "run"
    expected = []
    for stage in ("1", "2"):
        rc = cli.main(["train", "--stage", stage, "--data", str(data_dir),
                       "--run-dir", str(run_dir), "--config", str(tiny_config)])
        assert rc == 0
        n = int(stage)
        expected += pl.CHECKPOINTS[n] + pl.LATENTS[n] + [f"stage{n}.csv"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == sorted(expected)


def test_rerun_without_force_refused(trained_run, data_dir, tiny_config):
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(trained_run), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY


def test_changed_config_on_resume_refused(trained_run, data_dir, tmp_path):
    other = pl.TrainConfig(s1_epochs=26, s2_epochs=3, s2b_epochs=2, s3_epochs=25,
                           latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01, seed=4)
    path = tmp_path / "other.json"
    other.save(path)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(trained_run), "--config", str(path)])
    assert rc == cli.EXIT_DEPENDENCY


def test_lock_blocks_concurrent_use(trained_run, data_dir, tiny_config):
    lock = trained_run / ".lock"
    lock.write_text(f"{os.getpid()}\n")  # a live holder
    try:
        rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                       "--run-dir", str(trained_run), "--config", str(tiny_config),
                       "--force"])
        assert rc == cli.EXIT_DEPENDENCY
    finally:
        lock.unlink()


def test_stale_lock_of_a_dead_process_is_replaced(tmp_path, caplog):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # exited and reaped: its PID names no process
    lock = tmp_path / ".lock"
    lock.write_text(f"{child.pid}\n")
    with cli.run_lock(tmp_path):
        assert lock.read_text() == f"{os.getpid()}\n"
    assert not lock.exists()
    assert "stale lock" in caplog.text


@pytest.mark.parametrize("content", ["", "not a pid\n"])
def test_unreadable_lock_still_blocks(tmp_path, content):
    (tmp_path / ".lock").write_text(content)
    with pytest.raises(DependencyError, match="locked"):
        with cli.run_lock(tmp_path):
            pass


def test_infer_missing_arrays_file_exits_4(trained_run, corpus_dir, tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    (run / "checkpoints" / "vgae_st.npz").unlink()
    assert not pl.RunDir(run).stage_complete(3)
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DEPENDENCY
    assert str(run / "checkpoints" / "vgae_st.npz") in caplog.text


def test_infer_version_1_checkpoint_exits_3(trained_run, corpus_dir, tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header = run / "checkpoints" / "vgae_st.json"
    old = json.loads(header.read_text())
    header.write_text(json.dumps({"format_version": 1, "kind": "vgae", "arch": old["arch"],
                                  "params": {}, "extra": old["extra"]}))
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(header) in caplog.text and "retrain" in caplog.text
    assert "Traceback" not in caplog.text


def test_infer_writes_predictions(trained_run, corpus_dir, tmp_path):
    out = tmp_path / "pred.csv"
    rc = cli.main(["infer", "--run-dir", str(trained_run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(out), "--allow-extra-genes"])
    assert rc == 0
    ids, cols, mat = dataio.read_matrix_csv(out)
    panel = dataio.read_id_list(trained_run / "panel_shared.txt")
    assert cols == ["x_hat", "y_hat"] + panel
    assert out.read_text().startswith("id,x_hat,y_hat,")
    query = dataio.read_counts_csv(corpus_dir / "sc_query_counts.csv")
    assert ids == query.row_ids and len(ids) == 10
    x = pp.panel_matrix(query, pp.GenePanel(panel))
    x_hat, coords_norm, transform = pl.infer(pl.RunDir(trained_run), x, panel, panel)
    assert np.array_equal(mat, np.hstack([transform.denormalize(coords_norm), x_hat]))


def test_infer_prints_frame_with_plain_floats(trained_run, corpus_dir, tmp_path, capsys):
    rc = cli.main(["infer", "--run-dir", str(trained_run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == 0
    frame = json.loads((trained_run / "coord_transform.json").read_text())
    cx, cy = frame["center"]
    assert capsys.readouterr().out == (
        f"coordinate frame: normalized * {frame['scale']!r} + center ({cx!r}, {cy!r})\n")


def test_infer_panel_mismatch_exit_code(trained_run, tmp_path):
    bad = tmp_path / "bad_query.csv"
    m = CountMatrix(["q0"], ["NOT_A_GENE"], [[3]])
    dataio.write_counts_csv(bad, m)
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(bad),
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == cli.EXIT_DATA


def test_infer_strict_panel_rejects_superset(trained_run, corpus_dir, tmp_path):
    rc = cli.main(["infer", "--run-dir", str(trained_run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == cli.EXIT_DATA  # full gene set is a superset of the panel


def test_bench_reports(trained_run, corpus_dir, tmp_path):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--latent", str(trained_run / "latents" / "z_sc2000.csv"),
                   "--labels", str(corpus_dir / "truth_labels.csv"),
                   "--out", str(out), "--k", "1", "4", "--folds", "4",
                   "--holdout", "0.25"])
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "k=4" in report and "holdout" in report and "ari(" in report
    confusion = (out / "confusion.csv").read_text().strip().splitlines()
    assert confusion[0].startswith("true\\pred,")
    acc_k = (out / "accuracy_vs_k.csv").read_text().strip().splitlines()
    assert acc_k[0] == "k,mean_accuracy,std"
    assert len(acc_k) == 3


def test_bench_unmatched_ids_listed(trained_run, tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nonly_one,typeA\n")
    rc = cli.main(["bench", "--latent", str(trained_run / "latents" / "z_sc2000.csv"),
                   "--labels", str(labels), "--out", str(tmp_path / "bench")])
    assert rc == cli.EXIT_DATA


def test_bench_perfect_cluster_fixture(tmp_path):
    rng = np.random.default_rng(0)
    codes = np.vstack([rng.normal(0, 0.05, size=(8, 3)), rng.normal(9, 0.05, size=(8, 3))])
    ids = [f"c{i}" for i in range(16)]
    dataio.write_latent_csv(tmp_path / "z.csv", ids, codes)
    dataio.write_labels_csv(tmp_path / "labels.csv",
                            [(i, "a" if int(i[1:]) < 8 else "b") for i in ids])
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--latent", str(tmp_path / "z.csv"),
                   "--labels", str(tmp_path / "labels.csv"), "--out", str(out),
                   "--k", "3"])
    assert rc == 0
    assert "mean=1.000000" in (out / "report.txt").read_text()
    assert (out / "confusion.csv").read_bytes() == b"true\\pred,a,b\na,8,0\nb,0,8\n"
    assert (out / "accuracy_vs_k.csv").read_bytes() == b"k,mean_accuracy,std\n3,1.0,0.0\n"


def test_gradcheck_command():
    assert cli.main(["gradcheck"]) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])  # missing required args
    assert exc.value.code == cli.EXIT_USAGE


def test_determinism_two_cli_runs(data_dir, tiny_config, tmp_path):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        rc = cli.main(["train", "--stage", "all", "--data", str(data_dir),
                       "--run-dir", str(d), "--config", str(tiny_config)])
        assert rc == 0
    for rel in ("history/stage1.csv", "history/stage2.csv", "history/stage3.csv",
                "latents/z_sc2000.csv", "latents/z_sc500.csv", "latents/z_st500.csv",
                "latents/z_st_merged.csv"):
        a = (dirs[0] / rel).read_bytes()
        b = (dirs[1] / rel).read_bytes()
        assert a == b, rel
    # the whole run directory, checkpoint headers and .npz arrays included
    files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in dirs]
    assert files[0] == files[1]
    assert "checkpoints/vgae_st.npz" in {str(p) for p in files[0]}
    for rel in files[0]:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
