import dataclasses
import errno
import json
import os
import re
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest

from latentmap import autodiff as ad, benchmark as bm, cli, dataio, discriminator as disc
from latentmap import pipeline as pl, preprocess as pp, synth as sy, vgae as vg
from latentmap.errors import DataError, DependencyError, NumericError, ShapeError
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


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


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


def test_synth_flags_are_synth_config_fields_with_its_defaults():
    args = vars(cli.build_parser().parse_args(["synth", "--out", "d"]))
    assert {f.name: args[f.name] for f in dataclasses.fields(sy.SynthConfig)} == \
        dataclasses.asdict(sy.SynthConfig())
    del args["func"]
    assert args == {"command": "synth", "out": "d", "n_cells": 1000, "n_genes": 2000,
                    "n_shared": 500, "n_types": 4, "grid_side": 16, "noise": 0.3,
                    "layout": "quadrants", "seed": 0, "n_query": 0}


# sha256 of every file of a tiny corpus: the cell generator's rewrites keep these bytes
_TINY_SYNTH_SHA256 = {
    "regions.csv": "4438363bfed66fd799db10832b3b24d4df345e77895bed6cda7a7090035f08a7",
    "sc_counts.csv": "6ac9e9ef271e3027a32a73c5ec1f194ee889063826f8a2dd072d945eae838ac6",
    "sc_query_counts.csv": "3f80232f9d62122464c1301e4261dfb99647be7a2168677218ed0e6090c1fcec",
    "st_coords.csv": "0c3ac145df767e16f3e1e6ea0aac3906b21f1c30bec7663270330c50470fa2d8",
    "st_counts.csv": "2ddef91554018c3d5523a2029dd270c6357a9674542a269dbb332aec1f1a49c2",
    "truth_labels.csv": "36b9fdda85876b2c076713e5e24d27aeb8614d149c970ea299e42d518adc64a8",
}


def test_synth_tiny_corpus_golden_sha256(tmp_path):
    rc = cli.main(["synth", "--out", str(tmp_path), "--seed", "5", "--n-cells", "12",
                   "--n-genes", "10", "--n-shared", "6", "--grid-side", "4", "--n-query", "10"])
    assert rc == 0
    assert {p.name: cli.file_digest(p) for p in tmp_path.iterdir()} == _TINY_SYNTH_SHA256


def test_preprocess_outputs_and_summary(data_dir):
    assert sorted(p.name for p in data_dir.iterdir()) == [
        "panel_hvg2000.txt", "panel_shared500.txt", "sc_counts_qc.csv", "st_coords.csv",
        "st_counts_qc.csv", "summary.json"]
    sc = dataio.read_counts_csv(data_dir / "sc_counts_qc.csv")
    st = dataio.read_counts_csv(data_dir / "st_counts_qc.csv")
    big = dataio.read_id_list(data_dir / "panel_hvg2000.txt")
    shared = dataio.read_id_list(data_dir / "panel_shared500.txt")
    assert set(sc.col_ids) == set(big) | set(shared) and st.col_ids == shared
    assert st.row_ids == dataio.read_coords_csv(data_dir / "st_coords.csv")[0]
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


def test_pipeline_data_is_panel_matrix_of_qc_counts(corpus_dir, data_dir, monkeypatch):
    # the training matrices are exactly what infer's normalization gives the QC'd counts
    target_sum = json.loads((data_dir / "summary.json").read_text())["target_sum"]
    sc, _ = pp.run_qc(dataio.read_counts_csv(corpus_dir / "sc_counts.csv"),
                      min_genes=30, min_cells=10, max_mito_ribo=0.2)
    st, _ = pp.run_qc(dataio.read_counts_csv(corpus_dir / "st_counts.csv"),
                      min_genes=0, min_cells=10, max_mito_ribo=0.2)
    big = pp.GenePanel(dataio.read_id_list(data_dir / "panel_hvg2000.txt"))
    shared = pp.GenePanel(dataio.read_id_list(data_dir / "panel_shared500.txt"))
    panel_matrix, built_from = pp.panel_matrix, []

    def build(m, panel, target_sum):
        built_from.append((m, panel))
        return panel_matrix(m, panel, target_sum)

    monkeypatch.setattr(pp, "panel_matrix", build)
    inputs, panel_ids, got_target_sum = pl.load_pipeline_data(data_dir, [1, 2, 3], pl.TrainConfig())
    assert panel_ids == shared.gene_ids and got_target_sum == target_sum
    assert built_from == []  # nothing is normalized before a stage builds its inputs
    args = {stage: inputs[stage]() for stage in (1, 2, 3)}
    for (x, ids), m, panel in ((args[1][0:2], sc, big), (args[2][0:2], sc, shared),
                               (args[2][2:4], st, shared), (args[3][0:2], st, shared)):
        assert ids == m.row_ids
        assert np.array_equal(x, panel_matrix(m, panel, target_sum))
    # each matrix is built from its counts on its panel, held in their narrowest dtype
    assert len(built_from) == 4
    for m, panel in built_from:
        assert m.col_ids == panel.gene_ids
        assert m.counts.dtype == np.min_scalar_type(m.counts.max()) == np.uint8
    assert np.array_equal(args[3][2], dataio.read_coords_csv(data_dir / "st_coords.csv")[1])
    # only the stages asked for get inputs
    assert list(pl.load_pipeline_data(data_dir, [3], pl.TrainConfig())[0]) == [3]


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


def test_preprocess_drops_a_spot_with_no_counts_on_the_shared_panel(corpus_dir, tiny_config,
                                                                    tmp_path, caplog):
    # all of spot S00000's counts moved onto one gene that the 10-gene panel leaves out
    st = dataio.read_counts_csv(corpus_dir / "st_counts.csv")
    counts = st.counts.copy()
    counts[0] = 0
    counts[0, 0] = st.counts[0].sum()
    dataio.write_counts_csv(tmp_path / "st_counts.csv", CountMatrix(st.row_ids, st.col_ids, counts))
    prep = tmp_path / "prep"
    rc = cli.main(["preprocess", "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                   "--st-counts", str(tmp_path / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"), "--out", str(prep),
                   "--min-genes", "30", "--min-cells", "10", "--n-hvg", "80", "--n-shared", "10"])
    assert rc == 0
    assert st.col_ids[0] not in dataio.read_id_list(prep / "panel_shared500.txt")
    kept = dataio.read_counts_csv(prep / "st_counts_qc.csv").row_ids
    assert kept == st.row_ids[1:]
    assert dataio.read_coords_csv(prep / "st_coords.csv")[0] == kept
    assert json.loads((prep / "summary.json").read_text())["st"]["spots_out"] == len(kept)
    assert "0 cell(s) and 1 spot(s) with no counts on a panel" in caplog.text
    rc = cli.main(["train", "--stage", "1", "--data", str(prep),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == 0


def test_preprocess_unparseable_file_reports_line(tmp_path, corpus_dir):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,g0\nc0,notanumber\n")
    rc = cli.main(["preprocess", "--sc-counts", str(bad),
                   "--st-counts", str(corpus_dir / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA


_BAD_FLAG_VALUES = [
    ("preprocess", "--min-genes", "-1", "min_genes must be >= 0, got -1"),
    ("preprocess", "--min-cells", "-1", "min_cells must be >= 0, got -1"),
    ("preprocess", "--max-mito-ribo", "2", "max_fraction must be in [0, 1], got 2.0"),
    ("preprocess", "--n-hvg", "-5", "--n-hvg must be >= 1, got -5"),
    ("preprocess", "--n-hvg", "0", "--n-hvg must be >= 1, got 0"),
    ("preprocess", "--n-shared", "-3", "shared panel size must be >= 1, got -3"),
    ("preprocess", "--target-sum", "0", "target_sum must be a finite number > 0, got 0.0"),
    ("preprocess", "--target-sum", "nan", "target_sum must be a finite number > 0, got nan"),
    ("synth", "--noise", "nan", "noise must be a finite number >= 0, got nan"),
    ("synth", "--noise", "-1", "noise must be a finite number >= 0, got -1.0"),
    ("synth", "--noise", "inf", "noise must be a finite number >= 0, got inf"),
    ("synth", "--seed", "-1", "seed must be >= 0, got -1"),
    ("synth", "--n-genes", "0", "n_genes must be >= 1, got 0"),
    ("synth", "--n-shared", "0", "n_shared must be >= 1, got 0"),
    ("synth", "--n-shared", "-1", "n_shared must be >= 1, got -1"),
    ("synth", "--n-query", "-3", "--n-query must be >= 0, got -3"),
    ("synth", "--n-types", "5", "stripes layout: n_types 5 > grid_side 4"),
    ("train", "--seed", "-1", "seed must be >= 0, got -1"),
    ("train", "--config", '{"seed": -3}', "config.json: seed must be >= 0, got -3"),
    ("bench", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("bench", "--folds", "1", "folds must be >= 2, got 1"),
    ("bench", "--folds", "0", "folds must be >= 2, got 0"),
    ("bench", "--k", "0", "k must be positive, got 0"),
    ("bench", "--holdout", "1.5", "holdout fraction must be in (0, 1), got 1.5"),
    ("bench", "--holdout", "0", "holdout fraction must be in (0, 1), got 0.0"),
    ("gradcheck", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("gradcheck", "--tolerance", "nan", "--tolerance must be a finite number > 0, got nan"),
    ("gradcheck", "--tolerance", "inf", "--tolerance must be a finite number > 0, got inf"),
    ("gradcheck", "--tolerance", "0", "--tolerance must be a finite number > 0, got 0.0"),
]


@pytest.mark.parametrize("command,flag,value,named", _BAD_FLAG_VALUES,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in _BAD_FLAG_VALUES])
def test_bad_flag_value_exits_3_naming_it_before_writing(request, corpus_dir, tmp_path, caplog,
                                                          capsys, command, flag, value, named):
    out = tmp_path / "out"
    if command == "preprocess":
        argv = ["preprocess", "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                "--st-counts", str(corpus_dir / "st_counts.csv"),
                "--st-coords", str(corpus_dir / "st_coords.csv"), "--out", str(out),
                "--min-genes", "30", "--min-cells", "10", "--n-hvg", "80", "--n-shared", "30"]
    elif command == "synth":
        argv = ["synth", "--out", str(out), "--n-cells", "20", "--n-genes", "30",
                "--n-shared", "10", "--grid-side", "4", "--layout", "stripes"]
    elif command == "train":
        argv = ["train", "--stage", "1", "--data", str(request.getfixturevalue("data_dir")),
                "--run-dir", str(out), "--config", str(request.getfixturevalue("tiny_config"))]
        if flag == "--config":
            (tmp_path / "config.json").write_text(value)
            value = str(tmp_path / "config.json")
    elif command == "bench":
        ids = [f"c{i}" for i in range(8)]
        dataio.write_latent_csv(tmp_path / "z.csv", ids, np.arange(16.0).reshape(8, 2))
        dataio.write_labels_csv(tmp_path / "labels.csv", [(i, "a" if int(i[1:]) < 4 else "b") for i in ids])
        argv = ["bench", "--latent", str(tmp_path / "z.csv"),
                "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]
    else:
        argv = ["gradcheck"]
    rc = cli.main(argv + [flag, value])  # the last occurrence of a flag wins
    assert rc == cli.EXIT_DATA
    assert named in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()
    assert "relative error" not in capsys.readouterr().out  # no gradient check ran


@pytest.mark.parametrize("command,target", [
    ("synth", "a_file"), ("preprocess", "a_file"), ("train", "a_file"), ("bench", "a_file"),
    ("infer", "missing_dir/pred.csv"), ("infer", "a_file/pred.csv")])
def test_unwritable_output_exits_3_naming_it(corpus_dir, data_dir, tiny_config, trained_run,
                                             tmp_path, caplog, command, target):
    (tmp_path / "a_file").write_text("not a directory\n")
    path = str(tmp_path / target)
    argv = {
        "synth": ["--n-cells", "20", "--n-genes", "30", "--n-shared", "10", "--grid-side", "4",
                  "--out", path],
        "preprocess": ["--sc-counts", str(corpus_dir / "sc_counts.csv"),
                       "--st-counts", str(corpus_dir / "st_counts.csv"),
                       "--st-coords", str(corpus_dir / "st_coords.csv"), "--out", path,
                       "--min-genes", "30", "--min-cells", "10", "--n-hvg", "80",
                       "--n-shared", "30"],
        "train": ["--stage", "1", "--data", str(data_dir), "--run-dir", path,
                  "--config", str(tiny_config)],
        "infer": ["--run-dir", str(trained_run), "--allow-extra-genes",
                  "--query", str(corpus_dir / "sc_query_counts.csv"), "--out", path],
        "bench": ["--latent", str(trained_run / "latents" / "z_sc2000.csv"),
                  "--labels", str(corpus_dir / "truth_labels.csv"), "--out", path],
    }[command]
    assert cli.main([command, *argv]) == cli.EXIT_DATA
    assert path in caplog.text
    assert "Traceback" not in caplog.text
    assert (tmp_path / "a_file").read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_file"]  # no .tmp left behind


def test_train_stage3_before_2_dependency_error(data_dir, tiny_config, tmp_path):
    rc = cli.main(["train", "--stage", "3", "--data", str(data_dir),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY


def test_train_missing_data_dependency_error(tiny_config, tmp_path):
    rc = cli.main(["train", "--stage", "1", "--data", str(tmp_path / "nope"),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY


def test_train_old_prep_layout_exits_4_naming_counts(data_dir, tiny_config, tmp_path, caplog):
    old = tmp_path / "prep"
    shutil.copytree(data_dir, old)
    for name in ("sc_counts_qc.csv", "st_counts_qc.csv"):
        (old / name).unlink()
    for name in ("x_sc2000.csv", "x_sc500.csv", "x_st500.csv"):
        (old / name).write_text("id,g0\nc0,0.5\n")
    rc = cli.main(["train", "--stage", "1", "--data", str(old),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY
    assert str(old / "sc_counts_qc.csv") in caplog.text
    assert "re-run `latentmap preprocess`" in caplog.text
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("summary", [None, b"{}", b'{"target_sum": "1e4"}',
                                     b'{"target_sum": true}', b'{"target_sum": 0}',
                                     b'{"target_sum": -1.0}', b'{"target_sum": NaN}'],
                         ids=["missing", "absent", "string", "bool", "zero", "negative", "nan"])
def test_train_bad_summary_target_sum_exits_3_naming_it(data_dir, tiny_config, tmp_path,
                                                        caplog, summary):
    prep = tmp_path / "prep"
    shutil.copytree(data_dir, prep)
    if summary is None:
        (prep / "summary.json").unlink()
    else:
        (prep / "summary.json").write_bytes(summary)
    rc = cli.main(["train", "--stage", "1", "--data", str(prep),
                   "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert str(prep / "summary.json") in caplog.text
    assert "Traceback" not in caplog.text


def test_trained_run_layout(trained_run):
    # exactly these files: a new artifact must be named here (and read somewhere)
    files = {str(p.relative_to(trained_run)) for p in trained_run.rglob("*") if p.is_file()}
    assert files == {
        "config.json", "manifest.json", "panel_shared.txt", "graph_edges.txt",
        "checkpoints/vae_sc2000.json", "checkpoints/vae_sc2000.f64",
        "checkpoints/vae_sc500.json", "checkpoints/vae_sc500.f64",
        "checkpoints/vae_st500.json", "checkpoints/vae_st500.f64",
        "checkpoints/vgae_st.json", "checkpoints/vgae_st.f64",
        "latents/z_sc2000.csv", "latents/z_sc500.csv", "latents/z_st500.csv",
        "latents/z_st_merged.csv",
        "history/stage1.csv", "history/stage2.csv", "history/stage3.csv"}


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


@pytest.mark.parametrize("stage", ["2", "3"])
def test_frozen_latent_of_another_width_exits_3_naming_both(trained_run, data_dir, tmp_path,
                                                            caplog, stage):
    # the run's latents are 4 wide; rerunning a stage at latent_dim 6 must not reach the model
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    cfg6 = tmp_path / "cfg6.json"
    pl.TrainConfig(s1_epochs=25, s2_epochs=3, s2b_epochs=2, s3_epochs=25, latent_dim=6,
                   enc_hidden=(16, 8), kl_weight=0.01, seed=4).save(cfg6)
    rc = cli.main(["train", "--stage", stage, "--force", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(cfg6)])
    assert rc == cli.EXIT_DATA
    fixed = "z_sc2000" if stage == "2" else "z_st500"
    assert f"the fixed {fixed} latent is 4 wide, but latent_dim is 6" in caplog.text
    assert "Traceback" not in caplog.text
    # the checks run before any write: config.json and the manifest keep the old config
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("error,code", [(DataError, 3), (ShapeError, 3), (DependencyError, 4),
                                        (NumericError, 5)])
def test_each_error_class_exits_with_its_code(monkeypatch, caplog, error, code):
    def fail(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert cli.main(["gradcheck"]) == code
    assert "raised by the command" in caplog.text


def test_train_truncated_manifest_exits_3_naming_it(data_dir, tiny_config, tmp_path, caplog):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text('{"artifacts": ["checkpoints/vae_sc2000.json"')
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert str(run_dir / "manifest.json") in caplog.text
    assert not (run_dir / ".lock").exists()


@pytest.mark.parametrize("content", [b'{"s1_epochs": 3, "s2_', b'{"s1_epochs": \xff}', b"5",
                                     b'{"s1_epochs": "x"}',
                                     b'{"learning_rate": -1, "disc_target_acc": 7}',
                                     b'{"nope": 1}', b'{"w_adv": 1%s}' % (b"0" * 400)],
                         ids=["truncated", "not-utf8", "not-an-object", "wrong-type",
                              "out-of-range", "unknown-key", "too-large-for-a-float"])
def test_train_corrupt_config_exits_3_naming_it(data_dir, tmp_path, caplog, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(tmp_path / "run"), "--config", str(config)])
    assert rc == cli.EXIT_DATA
    assert str(config) in caplog.text and "Traceback" not in caplog.text
    assert not (tmp_path / "run").exists()


def test_train_manifest_whose_input_digests_is_not_an_object_exits_3(trained_run, data_dir,
                                                                     tiny_config, tmp_path,
                                                                     caplog):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["input_digests"] = list(manifest["input_digests"].values())
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    rc = cli.main(["train", "--stage", "3", "--force", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert f"{run_dir / 'manifest.json'}: 'input_digests' must be a JSON object" in caplog.text
    assert "Traceback" not in caplog.text
    assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


def test_failed_stage_leaves_the_records_of_the_stages_before_it(data_dir, tiny_config,
                                                                  tmp_path, monkeypatch):
    def fail(*args):
        raise NumericError("stage 2 diverged")

    monkeypatch.setattr(pl, "stage2", fail)
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--stage", "all", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_NUMERIC
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(pl.CHECKPOINTS[1] + pl.LATENTS[1] + ["stage1.csv"])
    assert (run_dir / "config.json").exists() and (run_dir / "panel_shared.txt").exists()
    assert not (run_dir / "latents" / "z_sc500.csv").exists()


def test_manifest_contents(trained_run, data_dir):
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["tool_version"]
    assert set(manifest["input_digests"]) == {
        "sc_counts_qc.csv", "st_counts_qc.csv", "st_coords.csv", "panel_hvg2000.txt",
        "panel_shared500.txt", "summary.json"}
    for name in ("sc_counts_qc.csv", "summary.json"):
        assert manifest["input_digests"][name] == cli.file_digest(str(data_dir / name))
    assert {"vgae_st.json", "vgae_st.f64"} <= set(manifest["artifacts"])
    summary = json.loads((data_dir / "summary.json").read_text())
    assert manifest["target_sum"] == summary["target_sum"] == 1e4


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


def test_forced_rerun_of_stage_1_deletes_the_stages_built_on_it(trained_run, data_dir,
                                                                 corpus_dir, tmp_path, caplog):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    cfg6 = tmp_path / "cfg6.json"
    pl.TrainConfig(s1_epochs=25, s2_epochs=3, s2b_epochs=2, s3_epochs=25, latent_dim=6,
                   enc_hidden=(16, 8), kl_weight=0.01, seed=4).save(cfg6)
    rc = cli.main(["train", "--stage", "1", "--force", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(cfg6)])
    assert rc == 0
    stage1 = pl.CHECKPOINTS[1] + pl.LATENTS[1] + ["stage1.csv"]
    assert {p.name for p in _files(run_dir)} == {
        *stage1, "config.json", "manifest.json", "panel_shared.txt"}
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(stage1) and manifest["config"]["latent_dim"] == 6
    rc = cli.main(["infer", "--run-dir", str(run_dir),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DEPENDENCY
    assert (f"missing artifact from stage 2: {run_dir / 'checkpoints' / 'vae_sc500.json'}"
            in caplog.text)


def test_stage_over_files_of_a_later_stage_refused_without_force(trained_run, data_dir,
                                                                  tiny_config, tmp_path, caplog):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    for p in pl.RunDir(run_dir).stage_artifacts(2):
        os.remove(p)
    before = _files(run_dir)
    rc = cli.main(["train", "--stage", "2", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY
    assert "stage 2 or a later stage already has artifacts" in caplog.text
    assert _files(run_dir) == before


def test_failed_forced_rerun_leaves_the_later_stages_untouched(trained_run, data_dir,
                                                               tiny_config, tmp_path,
                                                               monkeypatch):
    def diverge(*args, **kwargs):
        raise NumericError("stage 2 diverged")

    monkeypatch.setattr(pl, "_generator_step", diverge)
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    before = _files(run_dir)
    rc = cli.main(["train", "--stage", "2", "--force", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_NUMERIC
    assert _files(run_dir) == before


def test_stage_without_its_inputs_refused_before_any_write(data_dir, tiny_config, tmp_path):
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--stage", "3", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DEPENDENCY
    assert [p for p in run_dir.rglob("*") if p.is_file()] == []


def test_changed_config_on_resume_refused(trained_run, data_dir, tmp_path):
    other = pl.TrainConfig(s1_epochs=26, s2_epochs=3, s2b_epochs=2, s3_epochs=25,
                           latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01, seed=4)
    path = tmp_path / "other.json"
    other.save(path)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(trained_run), "--config", str(path)])
    assert rc == cli.EXIT_DEPENDENCY


def test_lock_blocks_concurrent_use(trained_run, data_dir, tiny_config, tmp_path, caplog):
    run_dir = tmp_path / "run"
    shutil.copytree(trained_run, run_dir)
    before = _files(run_dir)
    with cli.run_lock(run_dir):  # a second open of the directory is a second holder
        rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                       "--run-dir", str(run_dir), "--config", str(tiny_config), "--force"])
    assert rc == cli.EXIT_DEPENDENCY
    assert f"run directory {run_dir} is locked" in caplog.text
    assert _files(run_dir) == before


def test_lock_of_a_killed_holder_is_released(tmp_path, caplog):
    code = ("import sys, time\nfrom latentmap import cli\n"
            "with cli.run_lock(sys.argv[1]):\n    print('held', flush=True)\n    time.sleep(600)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    child = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "held\n"
        with pytest.raises(DependencyError, match="locked"):
            with cli.run_lock(tmp_path):
                pass
    finally:
        child.kill()  # SIGKILL: the child runs no cleanup of its own
        child.wait()
        child.stdout.close()
    caplog.set_level("DEBUG")
    with cli.run_lock(tmp_path):
        pass
    assert caplog.records == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["", "not a pid\n", "own pid"], ids=["empty", "garbage", "pid"])
def test_lock_file_of_an_older_version_is_ignored(data_dir, tiny_config, tmp_path, content):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    lock = run_dir / ".lock"
    lock.write_text(f"{os.getpid()}\n" if content == "own pid" else content)
    os.utime(lock, ns=(1_000_000_000, 1_000_000_000))
    before = (lock.read_bytes(), lock.stat().st_mtime_ns)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == 0
    assert (lock.read_bytes(), lock.stat().st_mtime_ns) == before


def test_lock_refused_by_the_os_exits_3_naming_the_run_dir(data_dir, tiny_config, tmp_path,
                                                           monkeypatch, caplog):
    def refuse(fd, operation):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    monkeypatch.setattr(cli.fcntl, "flock", refuse)
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert f"{run_dir}: cannot lock: {os.strerror(errno.ENOLCK)}" in caplog.text
    assert "Traceback" not in caplog.text
    assert list(run_dir.iterdir()) == []  # no stage ran unlocked


def test_no_lock_file_during_or_after_a_run(data_dir, tiny_config, tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    seen = []
    stage1 = pl.stage1

    def watched(*args):
        seen.append(sorted(p.name for p in run_dir.iterdir()))
        with pytest.raises(DependencyError, match="locked"):  # held while the stage runs
            with cli.run_lock(run_dir):
                pass
        return stage1(*args)

    monkeypatch.setattr(pl, "stage1", watched)
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(run_dir), "--config", str(tiny_config)])
    assert rc == 0 and seen == [[]]
    assert not (run_dir / ".lock").exists()


def test_infer_missing_arrays_file_exits_4(trained_run, corpus_dir, tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    (run / "checkpoints" / "vgae_st.f64").unlink()
    with pytest.raises(DependencyError, match="vgae_st.f64"):
        pl.RunDir(run).require_stage(3)
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DEPENDENCY
    assert str(run / "checkpoints" / "vgae_st.f64") in caplog.text


def test_infer_arrays_file_that_is_a_directory_exits_3_naming_it(trained_run, corpus_dir,
                                                                  tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    block = run / "checkpoints" / "vae_sc500.f64"
    block.unlink()
    block.mkdir()
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert f"{block}: cannot read" in caplog.text
    assert not (tmp_path / "pred.csv").exists()


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


@pytest.mark.parametrize("header,path", [("vae_sc500.json", ["arch"]),
                                         ("vae_sc500.json", ["arch", "latent_dim"]),
                                         ("vgae_st.json", ["extra", "coord_transform"])])
def test_infer_damaged_checkpoint_header_exits_3(trained_run, corpus_dir, tmp_path, caplog,
                                                 header, path):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header_path = run / "checkpoints" / header
    obj = json.loads(header_path.read_text())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    header_path.write_text(json.dumps(obj))
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(header_path) in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("field,value,message", [
    ("center", [1.0, 2.0, 3.0], "two finite center values and a finite scale > 0"),
    ("scale", 0, "two finite center values and a finite scale > 0"),
    ("scale", 10 ** 400, "OverflowError")], ids=["three-centre-values", "zero-scale", "huge-scale"])
def test_infer_bad_coord_transform_exits_3_before_writing(trained_run, corpus_dir, tmp_path,
                                                         caplog, field, value, message):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header_path = run / "checkpoints" / "vgae_st.json"
    obj = json.loads(header_path.read_text())
    obj["extra"]["coord_transform"][field] = value
    header_path.write_text(json.dumps(obj))
    out = tmp_path / "pred.csv"
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(out), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(header_path) in caplog.text and message in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("header", ["vae_sc500.json", "vgae_st.json"])
def test_infer_arch_that_does_not_fit_the_arrays_exits_3(trained_run, corpus_dir, tmp_path,
                                                        caplog, header):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header_path = run / "checkpoints" / header
    obj = json.loads(header_path.read_text())
    obj["arch"]["n_genes"] += 1
    header_path.write_text(json.dumps(obj))
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(header_path) in caplog.text and "checkpoint parameter" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("header", ["vae_sc500.json", "vgae_st.json"])
def test_infer_arch_too_large_to_allocate_exits_3(trained_run, corpus_dir, tmp_path, caplog,
                                                  header):
    # np.zeros of the first layer asks for terabytes it never writes
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header_path = run / "checkpoints" / header
    obj = json.loads(header_path.read_text())
    obj["arch"]["n_genes"] = 10 ** 11
    header_path.write_text(json.dumps(obj))
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(header_path) in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


def test_infer_panel_narrower_than_the_model_exits_3(trained_run, corpus_dir, tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    panel_path = run / "panel_shared.txt"
    dataio.write_id_list(panel_path, dataio.read_id_list(panel_path)[:-1])
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(panel_path) in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


def test_import_and_infer_leave_scipy_sparse_unloaded(trained_run, corpus_dir, tmp_path):
    # scipy.sparse costs about half of the CLI's import time; inference never needs it
    code = ("import sys\nfrom latentmap import cli\n"
            "before = 'scipy.sparse' in sys.modules\nrc = cli.main(sys.argv[1:])\n"
            "print(before, rc, 'scipy.sparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", code, "infer", "--run-dir", str(trained_run),
                           "--query", str(corpus_dir / "sc_query_counts.csv"),
                           "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False 0 False"


def test_train_all_stages_leaves_scipy_spatial_unloaded(data_dir, tiny_config, tmp_path):
    # the stage-3 kNN graph comes from a numpy cell grid, not a k-d tree
    code = ("import sys\nfrom latentmap import cli\nrc = cli.main(sys.argv[1:])\n"
            "print(rc, 'scipy.spatial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", code, "train", "--stage", "all",
                           "--data", str(data_dir), "--run-dir", str(tmp_path / "run"),
                           "--config", str(tiny_config)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("query", ["not_utf8.csv", "a_directory"])
def test_infer_unreadable_query_exits_3_naming_it(trained_run, corpus_dir, tmp_path, caplog,
                                                  query):
    path = tmp_path / query
    if query == "a_directory":
        path.mkdir()
    else:
        text = (corpus_dir / "sc_query_counts.csv").read_bytes()
        path.write_bytes(text.replace(b"\n", b"\xff\n", 2))
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(path),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert str(path) in caplog.text
    assert not (tmp_path / "pred.csv").exists()


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
    x_hat, coords_norm, transform = pl.infer(pl.RunDir(trained_run), x)
    assert np.array_equal(mat, np.hstack([transform.denormalize(coords_norm), x_hat]))


def _infer(run_dir, corpus_dir, out):
    return cli.main(["infer", "--run-dir", str(run_dir),
                     "--query", str(corpus_dir / "sc_query_counts.csv"),
                     "--out", str(out), "--allow-extra-genes"])


def test_infer_normalizes_at_the_target_sum_the_run_was_trained_with(corpus_dir, tiny_config,
                                                                     tmp_path):
    prep, run_dir, out = tmp_path / "prep", tmp_path / "run", tmp_path / "pred.csv"
    assert cli.main(["preprocess", "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                     "--st-counts", str(corpus_dir / "st_counts.csv"),
                     "--st-coords", str(corpus_dir / "st_coords.csv"), "--out", str(prep),
                     "--min-genes", "30", "--min-cells", "10", "--n-hvg", "80",
                     "--n-shared", "30", "--target-sum", "5000"]) == 0
    assert cli.main(["train", "--stage", "all", "--data", str(prep),
                     "--run-dir", str(run_dir), "--config", str(tiny_config)]) == 0
    assert json.loads((run_dir / "manifest.json").read_text())["target_sum"] == 5000.0
    assert _infer(run_dir, corpus_dir, out) == 0
    _, _, mat = dataio.read_matrix_csv(out)
    query = dataio.read_counts_csv(corpus_dir / "sc_query_counts.csv")
    panel = pp.GenePanel(dataio.read_id_list(run_dir / "panel_shared.txt"))
    for target_sum, same in ((5000.0, True), (1e4, False)):
        x_hat, coords_norm, transform = pl.infer(pl.RunDir(run_dir),
                                                 pp.panel_matrix(query, panel, target_sum))
        expected = np.hstack([transform.denormalize(coords_norm), x_hat])
        assert np.array_equal(mat, expected) == same


@pytest.mark.parametrize("value", [0, -1.0, "1e4", True, float("nan")],
                         ids=["zero", "negative", "string", "bool", "nan"])
def test_infer_bad_manifest_target_sum_exits_3_naming_it(trained_run, corpus_dir, tmp_path,
                                                         caplog, value):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    (run / "manifest.json").write_text(json.dumps({**manifest, "target_sum": value}))
    assert _infer(run, corpus_dir, tmp_path / "pred.csv") == cli.EXIT_DATA
    assert str(run / "manifest.json") in caplog.text and "target_sum" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


def test_infer_without_a_recorded_target_sum_uses_1e4(trained_run, corpus_dir, tmp_path):
    # the fixture's run was trained at 1e4, so every variant must give the same bytes
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert _infer(run, corpus_dir, tmp_path / "recorded.csv") == 0
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["target_sum"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert _infer(run, corpus_dir, tmp_path / "no_key.csv") == 0
    (run / "manifest.json").unlink()
    assert _infer(run, corpus_dir, tmp_path / "no_manifest.csv") == 0
    expected = (tmp_path / "recorded.csv").read_bytes()
    assert (tmp_path / "no_key.csv").read_bytes() == expected
    assert (tmp_path / "no_manifest.csv").read_bytes() == expected


def test_infer_vgae_header_that_still_records_dec_hidden(trained_run, corpus_dir, tmp_path):
    # run dirs written while dec_hidden was an arch field hold it in vgae_st.json
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    header = run / "checkpoints" / "vgae_st.json"
    obj = json.loads(header.read_text())
    assert "dec_hidden" not in obj["arch"]
    obj["arch"]["dec_hidden"] = obj["arch"]["exp_hidden"][::-1]
    header.write_text(json.dumps(obj))
    assert _infer(trained_run, corpus_dir, tmp_path / "new.csv") == 0
    assert _infer(run, corpus_dir, tmp_path / "old.csv") == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_infer_prints_frame_with_plain_floats(trained_run, corpus_dir, tmp_path, capsys):
    rc = cli.main(["infer", "--run-dir", str(trained_run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == 0
    frame = json.loads((trained_run / "checkpoints" / "vgae_st.json").read_text())
    frame = frame["extra"]["coord_transform"]
    cx, cy = frame["center"]
    assert capsys.readouterr().out == (
        f"coordinate frame: normalized * {frame['scale']!r} + center ({cx!r}, {cy!r})\n")


def test_infer_panel_mismatch_exit_code(trained_run, tmp_path, caplog):
    bad = tmp_path / "bad_query.csv"
    m = CountMatrix(["q0"], ["NOT_A_GENE"], [[3]])
    dataio.write_counts_csv(bad, m)
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(bad),
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == cli.EXIT_DATA
    assert "NOT_A_GENE" in caplog.text


def test_infer_strict_panel_rejects_superset(trained_run, corpus_dir, tmp_path):
    rc = cli.main(["infer", "--run-dir", str(trained_run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == cli.EXIT_DATA  # full gene set is a superset of the panel


def _damaged_counts(src, dst, damage):
    """``src``, a canonical count CSV, written to ``dst`` with one defect; returns its message."""
    lines = src.read_text().splitlines()
    genes = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if damage == "duplicate-gene":
        genes[2] = genes[1]
        message = f"duplicate col id {genes[1]!r}"
    elif damage == "duplicate-row":
        rows[1][0] = rows[0][0]
        message = f"duplicate row id {rows[0][0]!r}"
    else:
        rows[0][1] = "-3"
        message = f"negative count -3 for row {rows[0][0]!r}, gene {genes[1]!r}"
    dst.write_text("".join(",".join(row) + "\n" for row in [genes, *rows]))
    return f"{dst}: {message}"


@pytest.mark.parametrize("damage", ["duplicate-gene", "duplicate-row", "negative"])
def test_infer_bad_query_table_names_file_and_id(trained_run, corpus_dir, tmp_path, caplog,
                                                 damage):
    query = tmp_path / "query.csv"
    message = _damaged_counts(corpus_dir / "sc_query_counts.csv", query, damage)
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(query),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert message in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


def test_preprocess_negative_count_names_the_input(corpus_dir, tmp_path, caplog):
    sc = tmp_path / "sc_counts.csv"
    message = _damaged_counts(corpus_dir / "sc_counts.csv", sc, "negative")
    rc = cli.main(["preprocess", "--sc-counts", str(sc),
                   "--st-counts", str(corpus_dir / "st_counts.csv"),
                   "--st-coords", str(corpus_dir / "st_coords.csv"),
                   "--out", str(tmp_path / "prep")])
    assert rc == cli.EXIT_DATA
    assert message in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "prep").exists()


def _rename_first_spot(path):
    """Rename the first spot of the coordinates CSV at ``path``; returns (old id, new id)."""
    lines = path.read_text().splitlines(keepends=True)
    old, rest = lines[1].split(",", 1)
    lines[1] = f"renamed_{old},{rest}"
    path.write_text("".join(lines))
    return old, f"renamed_{old}"


def test_preprocess_spot_id_mismatch_names_both_files_and_the_id(corpus_dir, tmp_path, caplog):
    coords = tmp_path / "st_coords.csv"
    shutil.copyfile(corpus_dir / "st_coords.csv", coords)
    old, new = _rename_first_spot(coords)
    counts = corpus_dir / "st_counts.csv"
    rc = cli.main(["preprocess", "--sc-counts", str(corpus_dir / "sc_counts.csv"),
                   "--st-counts", str(counts), "--st-coords", str(coords),
                   "--out", str(tmp_path / "prep")])
    assert rc == cli.EXIT_DATA
    assert (f"{counts} and {coords} disagree on spot ids: data row 1 is {old!r} in the first "
            f"and {new!r} in the second") in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "prep").exists()


def test_check_spot_ids_of_different_lengths_names_the_first_missing_row():
    with pytest.raises(DataError, match=r"a.csv and b.csv disagree on spot ids: data row 3 "
                                        r"is 's2' in the first and no row in the second"):
        dataio.check_spot_ids("a.csv", ["s0", "s1", "s2"], "b.csv", ["s0", "s1"])
    dataio.check_spot_ids("a.csv", ["s0", "s1"], "b.csv", ["s0", "s1"])


def _damaged_prep(data_dir, tmp_path, damage):
    """A copy of the preprocess output ``data_dir`` with one defect; returns (dir, message)."""
    prep = tmp_path / "prep"
    shutil.copytree(data_dir, prep)
    if damage == "spot-ids":
        old, new = _rename_first_spot(prep / "st_coords.csv")
        return prep, (f"{prep / 'st_counts_qc.csv'} and {prep / 'st_coords.csv'} disagree on "
                      f"spot ids: data row 1 is {old!r} in the first and {new!r} in the second")
    if damage in ("zero-total", "missing-column"):
        sc = dataio.read_counts_csv(prep / "sc_counts_qc.csv")
        shared = dataio.read_id_list(prep / "panel_shared500.txt")
        if damage == "zero-total":  # the first cell keeps counts on the 2000-gene panel only
            counts = sc.counts.copy()
            counts[0, [sc.col_ids.index(g) for g in shared]] = 0
            dataio.write_counts_csv(prep / "sc_counts_qc.csv",
                                    CountMatrix(sc.row_ids, sc.col_ids, counts))
            return prep, (f"{prep / 'sc_counts_qc.csv'} on {prep / 'panel_shared500.txt'}: "
                          f"rows with zero total counts: [{sc.row_ids[0]!r}]")
        gene = shared[-1]
        dataio.write_counts_csv(prep / "sc_counts_qc.csv", sc.take_cols(
            [j for j, g in enumerate(sc.col_ids) if g != gene]))
        named = ("panel_hvg2000.txt" if gene in dataio.read_id_list(prep / "panel_hvg2000.txt")
                 else "panel_shared500.txt")
        return prep, (f"{prep / 'sc_counts_qc.csv'} on {prep / named}: "
                      f"matrix is missing panel genes: [{gene!r}]")
    panel = prep / ("panel_hvg2000.txt" if damage == "duplicate-hvg" else "panel_shared500.txt")
    genes = dataio.read_id_list(panel)
    if damage == "missing-gene":
        dataio.write_id_list(panel, genes + ["GZZZZZ"])
        return prep, (f"{prep / 'sc_counts_qc.csv'} on {panel}: "
                      "matrix is missing panel genes: ['GZZZZZ']")
    dataio.write_id_list(panel, genes + genes[1:2])
    return prep, f"{panel}: panel contains duplicate gene id {genes[1]!r}"


@pytest.mark.parametrize("damage", ["spot-ids", "duplicate-hvg", "duplicate-shared",
                                    "missing-gene", "zero-total", "missing-column"])
def test_train_bad_preprocessed_input_names_the_files_and_the_id(data_dir, tiny_config, tmp_path,
                                                                 caplog, damage):
    prep, message = _damaged_prep(data_dir, tmp_path, damage)
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--stage", "1", "--data", str(prep), "--run-dir", str(run_dir),
                   "--config", str(tiny_config)])
    assert rc == cli.EXIT_DATA
    assert message in caplog.text
    assert "Traceback" not in caplog.text
    assert not run_dir.exists()


@pytest.mark.parametrize("stage", ["all", "3"])
def test_train_graph_k_of_the_spot_count_exits_3_before_any_write(data_dir, tmp_path, caplog,
                                                                  stage):
    # n spots give each at most n - 1 neighbours; stage 3 would fail only after stages 1 and 2
    n_spots = len(dataio.read_counts_csv(data_dir / "st_counts_qc.csv").row_ids)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph_k": n_spots}))
    run_dir = tmp_path / "run"
    rc = cli.main(["train", "--stage", stage, "--data", str(data_dir), "--run-dir", str(run_dir),
                   "--config", str(config)])
    assert rc == cli.EXIT_DATA
    assert (f"graph_k {n_spots} must be below the spot count, {n_spots} in "
            f"{data_dir / 'st_counts_qc.csv'}") in caplog.text
    assert "Traceback" not in caplog.text
    assert not run_dir.exists()


def test_train_model_too_large_to_allocate_exits_3(data_dir, tmp_path, caplog):
    # the first weight matrix would outgrow a 48-bit address space, so nothing is allocated
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enc_hidden": [10 ** 14]}))
    rc = cli.main(["train", "--stage", "1", "--data", str(data_dir),
                   "--run-dir", str(tmp_path / "run"), "--config", str(config)])
    assert rc == cli.EXIT_DATA
    assert re.search(r"out of memory: Unable to allocate .* for an array with shape", caplog.text)
    assert "Traceback" not in caplog.text


def test_infer_duplicate_panel_gene_names_the_file_and_the_id(trained_run, corpus_dir,
                                                              tmp_path, caplog):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    panel_path = run / "panel_shared.txt"
    genes = dataio.read_id_list(panel_path)
    dataio.write_id_list(panel_path, genes + genes[:1])
    rc = cli.main(["infer", "--run-dir", str(run),
                   "--query", str(corpus_dir / "sc_query_counts.csv"),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert f"{panel_path}: panel contains duplicate gene id {genes[0]!r}" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


def test_infer_query_cell_without_panel_counts_names_both_files(trained_run, tmp_path, caplog):
    # the cell has counts, but none on the panel: only the extra gene is expressed
    panel_path = trained_run / "panel_shared.txt"
    panel = dataio.read_id_list(panel_path)
    query = tmp_path / "query.csv"
    dataio.write_counts_csv(query, CountMatrix(["q0", "q1"], panel + ["EXTRA"],
                                               [[3] * len(panel) + [0], [0] * len(panel) + [7]]))
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(query),
                   "--out", str(tmp_path / "pred.csv"), "--allow-extra-genes"])
    assert rc == cli.EXIT_DATA
    assert f"{query} on {panel_path}: rows with zero total counts: ['q1']" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("allow_extra", [True, False])
def test_infer_query_panel_mismatch_names_both_files(trained_run, tmp_path, caplog, allow_extra):
    panel_path = trained_run / "panel_shared.txt"
    panel = dataio.read_id_list(panel_path)
    query = tmp_path / "query.csv"
    genes = panel[1:] + ["NOT_A_GENE"]  # the first panel gene missing, one extra
    dataio.write_counts_csv(query, CountMatrix(["q0"], genes, [[3] * len(genes)]))
    rc = cli.main(["infer", "--run-dir", str(trained_run), "--query", str(query),
                   "--out", str(tmp_path / "pred.csv")]
                  + (["--allow-extra-genes"] if allow_extra else []))
    assert rc == cli.EXIT_DATA
    expected = f"{query}: genes differ from the run's panel {panel_path}: missing {[panel[0]]}"
    if allow_extra:
        assert expected in caplog.text and "extra" not in caplog.text
    else:
        assert f"{expected}, extra ['NOT_A_GENE']" in caplog.text
    assert not (tmp_path / "pred.csv").exists()


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


def test_bench_unmatched_ids_listed(trained_run, tmp_path, caplog):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nonly_one,typeA\n")
    latent = trained_run / "latents" / "z_sc2000.csv"
    rc = cli.main(["bench", "--latent", str(latent),
                   "--labels", str(labels), "--out", str(tmp_path / "bench")])
    assert rc == cli.EXIT_DATA
    first = dataio.read_latent_csv(latent)[0][0]
    assert f"{latent}: ids without labels in {labels}: ['{first}'" in caplog.text


def test_bench_duplicate_latent_id_exits_3_naming_file_and_id(tmp_path, caplog):
    latent = tmp_path / "z.csv"
    dataio.write_latent_csv(latent, ["a", "b", "a"], np.eye(3))
    dataio.write_labels_csv(tmp_path / "labels.csv", [("a", "x"), ("b", "y")])
    rc = cli.main(["bench", "--latent", str(latent), "--labels", str(tmp_path / "labels.csv"),
                   "--out", str(tmp_path / "bench"), "--k", "1", "--folds", "2"])
    assert rc == cli.EXIT_DATA
    assert f"{latent}: duplicate id 'a'" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "bench").exists()


def _refuse_sweep(*args, **kwargs):
    raise AssertionError("the k-fold sweep ran before the split flags were checked")


def _three_row_bench(tmp_path, monkeypatch, *flags):
    """``bench`` on a 3-row latent whose k-fold sweep must not start; returns (rc, latent)."""
    latent = tmp_path / "z.csv"
    dataio.write_latent_csv(latent, ["a", "b", "c"], np.eye(3))
    dataio.write_labels_csv(tmp_path / "labels.csv", [("a", "x"), ("b", "y"), ("c", "x")])
    monkeypatch.setattr(bm, "sweep_k", _refuse_sweep)
    rc = cli.main(["bench", "--latent", str(latent), "--labels", str(tmp_path / "labels.csv"),
                   "--out", str(tmp_path / "bench"), "--k", "1", *flags])
    return rc, latent


def test_bench_holdout_without_a_training_row_exits_3_naming_the_split(tmp_path, caplog,
                                                                        monkeypatch):
    rc, latent = _three_row_bench(tmp_path, monkeypatch, "--folds", "3", "--holdout", "0.9")
    assert rc == cli.EXIT_DATA
    assert (f"--holdout 0.9 on {latent}: holdout fraction 0.9 of 3 rows leaves no training row"
            in caplog.text)
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("flags,named", [
    ([], "--folds 4 on {latent}: 3 rows cannot fill 4 folds"),
    (["--folds", "1"], "--folds 1 on {latent}: folds must be >= 2, got 1"),
], ids=["default-folds", "folds-below-2"])
def test_bench_folds_the_rows_cannot_fill_exits_3_naming_flag_and_file(tmp_path, caplog,
                                                                       monkeypatch, flags, named):
    rc, latent = _three_row_bench(tmp_path, monkeypatch, *flags)
    assert rc == cli.EXIT_DATA
    assert named.format(latent=latent) in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "bench").exists()


def _bench_on_rows(tmp_path, n, *flags):
    """``bench`` on an ``n``-row, 3-class latent; returns (rc, latent, out)."""
    latent = tmp_path / "z.csv"
    ids = [f"c{i:02d}" for i in range(n)]
    dataio.write_latent_csv(latent, ids, np.random.default_rng(0).normal(size=(n, 2)))
    labels = tmp_path / "labels.csv"
    dataio.write_labels_csv(labels, [(c, "abc"[i % 3]) for i, c in enumerate(ids)])
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--latent", str(latent), "--labels", str(labels), "--out", str(out),
                   *flags])
    return rc, latent, out


@pytest.mark.parametrize("flags,k,rows", [
    (["--k", "500"], 500, 45),  # each of 4 folds trains on 45 of the 60 rows
    (["--k", "1", "46"], 46, 45),
    (["--k", "31", "--holdout", "0.5"], 31, 30),  # the first k is also the hold-out's
], ids=["one-k", "second-k", "holdout"])
def test_bench_k_above_the_training_rows_exits_3_naming_k_and_file(tmp_path, caplog,
                                                                  monkeypatch, flags, k, rows):
    monkeypatch.setattr(bm, "sweep_k", _refuse_sweep)
    rc, latent, out = _bench_on_rows(tmp_path, 60, *flags)
    assert rc == cli.EXIT_DATA
    assert (f"--k {k} on {latent}: a split of its 60 rows votes over {rows} training rows"
            in caplog.text)
    assert "Traceback" not in caplog.text
    assert not out.exists()


def test_bench_k_at_the_training_rows_runs(tmp_path):
    rc, _, out = _bench_on_rows(tmp_path, 60, "--k", "30", "45", "--holdout", "0.5")
    assert rc == 0
    assert "k=45 " in (out / "report.txt").read_text()


def test_bench_default_k_values_above_the_training_rows_are_left_out(tmp_path):
    # 3 classes give the defaults 1, 3, 5 and 7; 4 folds of 8 rows train on 6
    rc, _, out = _bench_on_rows(tmp_path, 8)
    assert rc == 0
    ks = [line.split(",")[0] for line in (out / "accuracy_vs_k.csv").read_text().splitlines()]
    assert ks == ["k", "1", "3", "5"]


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


def test_bench_golden_bytes_with_distance_and_vote_ties(tmp_path):
    # small integer codes, eight of them duplicated: distance ties at the k-th
    # neighbor and 2-2 vote ties at k = 4 both occur
    rng = np.random.default_rng(3)
    base = rng.integers(0, 3, size=(10, 2)).astype(float)
    ids = [f"c{i:02d}" for i in range(18)]
    latent = tmp_path / "z.csv"
    dataio.write_latent_csv(latent, ids, np.vstack([base, base[:8]]))
    dataio.write_labels_csv(tmp_path / "labels.csv", [(i, "abc"[n % 3]) for n, i in enumerate(ids)])
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--latent", str(latent), "--labels", str(tmp_path / "labels.csv"),
                   "--out", str(out), "--k", "1", "2", "3", "4", "--folds", "3",
                   "--holdout", "0.3"])
    assert rc == 0
    assert (out / "report.txt").read_text() == (
        f"latent: {latent}\nn: 18\nclasses: 3\nfolds: 3\nseed: 0\n\n"
        "k=1 mean=0.277778 std=0.157135 folds=[0.500000 0.166667 0.166667]\n"
        "k=2 mean=0.388889 std=0.207870 folds=[0.666667 0.166667 0.333333]\n"
        "k=3 mean=0.388889 std=0.207870 folds=[0.666667 0.166667 0.333333]\n"
        "k=4 mean=0.277778 std=0.157135 folds=[0.500000 0.166667 0.166667]\n"
        "holdout fraction=0.3 k=1 accuracy=0.400000\n"
        "ari(k=1, out-of-fold predictions): -0.023083\n")
    assert (out / "confusion.csv").read_bytes() == b"true\\pred,a,b,c\na,0,4,2\nb,2,4,0\nc,2,3,1\n"
    assert (out / "accuracy_vs_k.csv").read_bytes() == (
        b"k,mean_accuracy,std\n"
        b"1,0.27777777777777773,0.15713484026367722\n"
        b"2,0.38888888888888884,0.20786985482077452\n"
        b"3,0.38888888888888884,0.20786985482077452\n"
        b"4,0.27777777777777773,0.15713484026367722\n")


def test_gradcheck_command():
    assert cli.main(["gradcheck"]) == 0


@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_suite_passes_for_every_seed(seed):
    # the suite's networks get nonzero biases, so no ReLU input sits at its kink
    results = cli.gradcheck_suite(seed=seed)
    assert max(results.values()) < 1e-4, results


def _vjps_one_percent_off(fn, taped):
    """``fn``, but the vjps recorded for its output are 1% too large; ``taped`` counts them."""
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        tape = ad._active_tape()
        if tape is not None and tape.entries and tape.entries[-1][0] == out.node:
            rules = tape.entries[-1][1]
            rules[:] = [(inp, lambda g, vjp=vjp: 1.01 * vjp(g)) for inp, vjp in rules]
            taped.append(out.node)
        return out
    return wrapped


# every op the suite's networks and objectives tape
@pytest.mark.parametrize("op", ["add", "add_scalar", "affine_mse", "bce_with_logits",
                                "concat_cols", "exp", "matmul", "mul", "pair_dot", "relu",
                                "scale", "spmm", "square", "sub", "tsum"])
def test_gradcheck_suite_flags_a_one_percent_vjp_error_in_each_op(monkeypatch, op):
    taped = []
    monkeypatch.setattr(ad, op, _vjps_one_percent_off(getattr(ad, op), taped))
    results = cli.gradcheck_suite(seed=1)
    assert taped, f"the suite never tapes {op}"
    assert max(results.values()) > 1e-4, results


@pytest.mark.parametrize("module,name", [(pl, "euclidean_latent_loss"),
                                         (disc, "adversarial_generator_loss")],
                         ids=["euclidean_latent_loss", "adversarial_generator_loss"])
def test_gradcheck_suite_flags_a_wrong_anchor_or_adversarial_gradient(monkeypatch, module,
                                                                      name):
    # the anchors and the path through the frozen discriminator are trained on,
    # so the suite checks them too
    taped = []
    monkeypatch.setattr(module, name, _vjps_one_percent_off(getattr(module, name), taped))
    results = cli.gradcheck_suite(seed=1)
    assert taped
    assert max(results.values()) > 1e-4, results


def test_gradcheck_suite_flags_a_wrong_adversarial_gradient_on_the_spot_side(monkeypatch):
    # stage2 checks both sides: only the spot side's term (label 1) is made wrong
    taped = []
    wrong = _vjps_one_percent_off(disc.adversarial_generator_loss, taped)
    right = disc.adversarial_generator_loss
    monkeypatch.setattr(disc, "adversarial_generator_loss",
                        lambda p, z, target_label: (wrong if target_label == 1.0 else right)(
                            p, z, target_label=target_label))
    results = cli.gradcheck_suite(seed=1)
    assert taped, "the suite never tapes the spot side's adversarial term"
    assert results["stage2"] > 1e-4, results


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-m", "latentmap", "--help"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "infer" in proc.stdout


def test_usage_error_exit_code():
    for argv in (["train"],  # missing required args
                 ["synth", "--out", "d", "--layout", "rings"]):  # not in synth.LAYOUTS
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
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
    # the whole run directory, checkpoint headers and .f64 blocks included
    files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file()) for d in dirs]
    assert files[0] == files[1]
    assert "checkpoints/vgae_st.f64" in {str(p) for p in files[0]}
    for rel in files[0]:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


# every file of a stage 1 + stage 2 run on the module's corpus, config below
_TINY_STAGE2_SHA256 = {
    "checkpoints/vae_sc2000.f64": "7727ed65c791bb643942161b22891ee3672bdb8064aa02aa090327affdcabaa0",
    "checkpoints/vae_sc2000.json": "cc58e1c3a292ac322454a13d0de6ba00378469ffade2b2ebf9a6cb9e6e3afbe3",
    "checkpoints/vae_sc500.f64": "2aeec05682edf65837cd049a3743a15c788fb45e9ebcac12e281893f82b9dfc4",
    "checkpoints/vae_sc500.json": "52e97fa88e57cbc70ecf7a87a4b8583ac18bbb34d1b20834dc324fcab4ffde84",
    "checkpoints/vae_st500.f64": "27e5d4772e2b656682623c539d630091dd8df11cf3ebb842de64e2d6ea3de298",
    "checkpoints/vae_st500.json": "e628eb6729bcc64a18f8a2f394d49278d605b5eb625ce1d13739fc1f54b64061",
    "config.json": "ee183dea23b8dbdfde5bd9e6fa17d06039df672f8af5d8a0c4af5cd6314b4768",
    "history/stage1.csv": "c0bc290886dd0cc3c161ea5a3c8c88979bd559378c7a4d6754f30a7e5e2b3dfd",
    "history/stage2.csv": "508f56c4e8f7fd6d1431b1fa4b1e11880dd2f05dee78425cef3a3a9a88a59bbe",
    "latents/z_sc2000.csv": "736560fa2013029e9f0213c91f91a69f984c154f9229099757109dc497328c04",
    "latents/z_sc500.csv": "c408422034712c742ae104fb4856f4ebbe340b1a28bfd1674875e04abf78946e",
    "latents/z_st500.csv": "b1702a5faab76cd079c40d76841e90064cd187700b8b4f9e2ffc128567705d8e",
    "manifest.json": "2162791aedd9690a084632fc5626d439e53711243e111f5cda70cff67d3e33f8",
    "panel_shared.txt": "aa6c50de99de4691ac1007a583a9a7ba1447dfe5205aee8181735dde102938f2",
}


def test_tiny_stage2_run_dir_golden_sha256(data_dir, tmp_path):
    # stages 1 and 2 are MLPs only: any change to their arithmetic moves these digests
    config = tmp_path / "config.json"
    pl.TrainConfig(s1_epochs=6, s2_init_epochs=5, s2_epochs=2, s2b_epochs=1, latent_dim=4,
                   enc_hidden=(16, 8), kl_weight=0.01, seed=4).save(config)
    run_dir = tmp_path / "run"
    for stage in ("1", "2"):
        assert cli.main(["train", "--stage", stage, "--data", str(data_dir),
                         "--run-dir", str(run_dir), "--config", str(config)]) == 0
    assert {str(p.relative_to(run_dir)): cli.file_digest(p)
            for p in sorted(run_dir.rglob("*")) if p.is_file()} == _TINY_STAGE2_SHA256


# every file of a three-stage run on the module's corpus, config below
_TINY_STAGE3_SHA256 = {
    "checkpoints/vae_sc2000.f64": "7727ed65c791bb643942161b22891ee3672bdb8064aa02aa090327affdcabaa0",
    "checkpoints/vae_sc2000.json": "cc58e1c3a292ac322454a13d0de6ba00378469ffade2b2ebf9a6cb9e6e3afbe3",
    "checkpoints/vae_sc500.f64": "2aeec05682edf65837cd049a3743a15c788fb45e9ebcac12e281893f82b9dfc4",
    "checkpoints/vae_sc500.json": "52e97fa88e57cbc70ecf7a87a4b8583ac18bbb34d1b20834dc324fcab4ffde84",
    "checkpoints/vae_st500.f64": "27e5d4772e2b656682623c539d630091dd8df11cf3ebb842de64e2d6ea3de298",
    "checkpoints/vae_st500.json": "e628eb6729bcc64a18f8a2f394d49278d605b5eb625ce1d13739fc1f54b64061",
    "checkpoints/vgae_st.f64": "fff5ca62bba51cfa87182caf613209e319a82bc35b4254c46464559527039ed2",
    "checkpoints/vgae_st.json": "e098a9ebc73c33b3da467d2b1dc1cab48c67416f65dd1f126523f09f30df41df",
    "config.json": "95ef5657a576939dbb5188dcfb676156540f3684a8b980ac99e3125eb125dd31",
    "graph_edges.txt": "00aa60aa1583aa34a57aabcf00abb12d834ae58f46b5ceef46f17810c421b2b6",
    "history/stage1.csv": "c0bc290886dd0cc3c161ea5a3c8c88979bd559378c7a4d6754f30a7e5e2b3dfd",
    "history/stage2.csv": "508f56c4e8f7fd6d1431b1fa4b1e11880dd2f05dee78425cef3a3a9a88a59bbe",
    "history/stage3.csv": "93a92bbfddc4bbae705f74a5a047542f008681082d371405b4eb05d9d0209ca3",
    "latents/z_sc2000.csv": "736560fa2013029e9f0213c91f91a69f984c154f9229099757109dc497328c04",
    "latents/z_sc500.csv": "c408422034712c742ae104fb4856f4ebbe340b1a28bfd1674875e04abf78946e",
    "latents/z_st500.csv": "b1702a5faab76cd079c40d76841e90064cd187700b8b4f9e2ffc128567705d8e",
    "latents/z_st_merged.csv": "2b1027fa9f450e18a2594fa1dc6fc14cd45d84971c6c0d6ece0acdc5c0b0178a",
    "manifest.json": "ac2483c60ef2457c80558c6e51e20d0051191284d5f84cb55612e379ef755166",
    "panel_shared.txt": "aa6c50de99de4691ac1007a583a9a7ba1447dfe5205aee8181735dde102938f2",
}
# infer of the module's query cells on that run
_TINY_PREDICTIONS_SHA256 = "78923f9ab6d7448bc61dccb8eca7fe314c799fb71804a1a9f1f003cab687391b"


def test_tiny_stage3_run_dir_golden_sha256(data_dir, corpus_dir, tmp_path):
    # stage 3 adds the kNN graph, the negative draws and the GCN to the digests, and
    # infer's predictions pin every float the prediction writer emits
    config = tmp_path / "config.json"
    pl.TrainConfig(s1_epochs=6, s2_init_epochs=5, s2_epochs=2, s2b_epochs=1, s3_epochs=5,
                   latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01, seed=4).save(config)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--stage", "all", "--data", str(data_dir),
                     "--run-dir", str(run_dir), "--config", str(config)]) == 0
    assert {str(p.relative_to(run_dir)): cli.file_digest(p)
            for p in sorted(run_dir.rglob("*")) if p.is_file()} == _TINY_STAGE3_SHA256
    out = tmp_path / "predictions.csv"
    assert _infer(run_dir, corpus_dir, out) == 0
    assert cli.file_digest(out) == _TINY_PREDICTIONS_SHA256


def test_tiny_stages_run_one_by_one_give_the_all_run_bytes(data_dir, tmp_path):
    # --stage 2 and --stage 3 on their own read the matrices train keeps for them
    config = tmp_path / "config.json"
    pl.TrainConfig(s1_epochs=6, s2_init_epochs=5, s2_epochs=2, s2b_epochs=1, s3_epochs=5,
                   latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01, seed=4).save(config)
    run_dir = tmp_path / "run"
    for stage in ("1", "2", "3"):
        assert cli.main(["train", "--stage", stage, "--data", str(data_dir),
                         "--run-dir", str(run_dir), "--config", str(config)]) == 0
    assert {str(p.relative_to(run_dir)): cli.file_digest(p)
            for p in sorted(run_dir.rglob("*")) if p.is_file()} == _TINY_STAGE3_SHA256


@pytest.mark.parametrize("stage", ["all", "2", "3"])
def test_train_frees_each_matrix_once_no_later_stage_reads_it(data_dir, tiny_config, tmp_path,
                                                             monkeypatch, stage):
    def train(stage):
        return cli.main(["train", "--stage", stage, "--data", str(data_dir),
                         "--run-dir", str(tmp_path / "run"), "--config", str(tiny_config)])

    # a lone stage runs after the stages before it
    for earlier in range(1, 1 if stage == "all" else int(stage)):
        assert train(str(earlier)) == 0
    # each stage notes, when it starts, which of the matrices pp.panel_matrix has built and of
    # the counts they were built from are still alive and which of the matrices it reads,
    # and, when it returns, how many matrices have been built
    built, counts, shapes, alive, counts_alive, read, built_by_end = [], [], [], {}, {}, {}, {}
    panel_matrix = pp.panel_matrix

    def build(m, panel, target_sum):
        x = panel_matrix(m, panel, target_sum)
        built.append(weakref.ref(x))
        counts.append(weakref.ref(m))
        shapes.append(x.shape)
        return x

    def watch(stage, fn):
        def watched(cfg, *args):
            alive[stage] = [ref() is not None for ref in built]
            counts_alive[stage] = [ref() is not None for ref in counts]
            read[stage] = [any(ref() is a for a in args) for ref in built]
            out = fn(cfg, *args)
            built_by_end[stage] = len(built)
            return out
        return watched

    monkeypatch.setattr(pp, "panel_matrix", build)
    for s in (1, 2, 3):
        monkeypatch.setattr(pl, f"stage{s}", watch(s, getattr(pl, f"stage{s}")))
    assert train(stage) == 0
    ran = sorted(read)
    assert ran == ([1, 2, 3] if stage == "all" else [int(stage)])
    # a stage's matrices are built as it starts, and only those: 80 cells on the 80-gene
    # panel (stage 1), then the cells and the 64 spots on the 30-gene panel (stage 2), then
    # the spots again (stage 3); so a lone --stage 3 normalizes the spot counts only
    own = {1: [(80, 80)], 2: [(80, 30), (64, 30)], 3: [(64, 30)]}
    assert shapes == [shape for s in ran for shape in own[s]]
    before = 0
    for s in ran:
        mine = [False] * before + [True] * len(own[s])
        # alive when a stage starts: only its own matrices, which it reads; so no 500-gene
        # matrix exists while stage 1 trains, and nothing more is built before it returns
        assert alive[s] == read[s] == mine
        before += len(own[s])
        assert built_by_end[s] == before
    # the counts a stage normalized are freed as it starts, unless a later stage of the run
    # reads them: under --stage all, stage 3 normalizes the spot counts stage 2 did
    assert counts_alive == {"all": {1: [False], 2: [False, False, True],
                                    3: [False, False, False, False]},
                            "2": {2: [False, False]}, "3": {3: [False]}}[stage]


def test_lattice_graph_edges_golden_sha256(tmp_path):
    # graph_edges.txt of a 64 x 64 spot lattice at k = 6, as stage 3 writes it
    coords = np.array([[x, y] for y in range(64) for x in range(64)], dtype=np.float64)
    path = tmp_path / "graph_edges.txt"
    dataio.write_edge_list(path, vg.build_knn_graph(coords, k=6).edges)
    assert cli.file_digest(path) == "9ea212317d644547bd212ee89c97c4e522a82b64cc714f48db741498e09aac1b"


def test_readme_config_table_names_every_field_in_order():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        table = fh.read().split("| key | default | meaning |\n| --- | --- | --- |\n")[1]
    first_column = [row.split("|")[1] for row in table.split("\n\n")[0].splitlines()]
    names = [name for cell in first_column for name in re.findall(r"`([^`]+)`", cell)]
    assert names == [f.name for f in dataclasses.fields(pl.TrainConfig)]
