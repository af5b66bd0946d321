"""Toy-size checks of the benchmark harness itself (not part of the program's suite).

Run from the root of a checkout:

    python3 -m pytest perfbench/harness_checks.py

Every workload runs at seconds-long sizes, twice per mode with one seed, so
the checks cover the metric names and units, the per-layer metrics each
workload reaches, byte-identical outputs and exactly repeating counts, the
compare mode, and the refusal to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

SEED = 5
WORKLOADS = run.WORKLOAD_NAMES

# Per-layer metrics that must read above zero in a toy traced run of each workload.
_TRAINING = ["autodiff.forward_s", "autodiff.backward_s", "autodiff.backward_calls",
             "autodiff.adam_s", "autodiff.adam_calls", "autodiff.tape_entries_per_step.stage3",
             "autodiff.matmul_floor_ms.stage3", "autodiff.floor_ratio.stage3",
             "autodiff.op.matmul.calls", "autodiff.op.matmul.fwd_ms", "autodiff.op.matmul.out_mb",
             "autodiff.op.gather_pairs.calls", "autodiff.op.bce_with_logits.calls",
             "pipeline.stage3_s", "pipeline.stage3_step_ms", "vgae.knn_build_s", "vgae.loss_ms",
             "vgae.encode_ms", "vgae.decode_ms", "vgae.encode_calls_per_step",
             "vgae.negative_candidates_calls", "vgae.negative_candidates_ms",
             "vgae.negatives_used_ratio", "vgae.logits_used_ratio", "vgae.edges",
             "layers.save_checkpoint_s", "layers.save_checkpoint_mb", "dataio.write_s",
             "dataio.write_mb", "preprocess.panel_matrix_s", "synth.s"]
APPLIES = {
    "desk_pipeline": _TRAINING + [
        "cli.file_digest_s", "pipeline.load_data_s", "pipeline.stage1_s", "pipeline.stage2_s",
        "pipeline.stage1_step_ms", "pipeline.stage2_pretrain_step_ms",
        "pipeline.stage2_generator_step_ms", "autodiff.tape_entries_per_step.stage1",
        "autodiff.matmul_floor_ms.stage1", "autodiff.floor_ratio.stage1", "vae.loss_ms",
        "vae.encode_mu_calls", "vae.encode_mu_s", "discriminator.train_s",
        "discriminator.train_calls", "discriminator.accuracy_evals", "discriminator.accuracy_s",
        "discriminator.adv_loss_s", "dataio.read_s", "dataio.read_mb"],
    "slide_4096": _TRAINING + ["quality.edge_auc"],
    "infer_stream": [
        "cli.infer_self_s", "pipeline.infer_ms", "autodiff.forward_s", "autodiff.op.matmul.calls",
        "autodiff.op.matmul.out_mb", "autodiff.op.relu.calls", "vae.encode_mu_calls",
        "vae.encode_mu_s", "vgae.decode_ms", "layers.load_checkpoint_s",
        "layers.load_checkpoint_mb", "dataio.read_s", "dataio.read_mb",
        "preprocess.panel_matrix_s", "synth.s"],
}


def _bench(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    return proc


@pytest.fixture(scope="module")
def workdir():
    path = HERE / ".work" / f"checks-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def toy_runs(workdir):
    """{(workload, trace, side): (last stdout line as JSON, result file, stdout)} for two sides."""
    out = {}
    for side in ("a", "b"):
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = _bench(ROOT, "--workload", workload, "--seed", SEED, "--seconds", 0,
                              "--trace", trace, "--toy", "--results", workdir / side)
                assert proc.returncode == 0, proc.stderr[-2000:]
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                path = workdir / side / f"{workload}-seed{SEED}-trace{trace}-toy.json"
                with open(path) as fh:
                    out[workload, trace, side] = (line, json.load(fh), proc.stdout)
    return out


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(toy_runs, workload):
    line = toy_runs[workload, 0, "a"][0]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0


# The end-to-end metrics under the names a user of each workload knows, with units.
SUMMARY_NAMES = {
    "desk_pipeline": ["setup_s", "train_s", "peak_rss_mb", "region_hit_rate", "error_rate"],
    "slide_4096": ["setup_s", "train_s", "peak_rss_mb", "edge_auc", "error_rate"],
    "infer_stream": ["setup_s", "infer_ms_p50", "infer_ms_p90", "infer_cells_per_s",
                     "peak_rss_mb", "error_rate"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_summary_prints_workload_metric_names_with_units(toy_runs, workload):
    lines = toy_runs[workload, 0, "a"][2].splitlines()
    for name in SUMMARY_NAMES[workload]:
        found = [ln.split() for ln in lines if ln.startswith(name + " ")]
        assert found and len(found[0]) >= 3, name
        float(found[0][1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(toy_runs, workload):
    line = toy_runs[workload, 1, "a"][0]
    assert line["correct"] and line["failed"] == 0
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == metrics.PER_LAYER
    zero = [name for name in APPLIES[workload] if not line["metrics"][name]["value"] > 0]
    assert not zero


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_outputs(toy_runs, workload):
    for trace in (0, 1):
        a = toy_runs[workload, trace, "a"][1]["digests"]
        b = toy_runs[workload, trace, "b"][1]["digests"]
        assert a and a == b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_counts(toy_runs, workload):
    a = toy_runs[workload, 1, "a"][0]["metrics"]
    b = toy_runs[workload, 1, "b"][0]["metrics"]
    assert {n: a[n]["value"] for n in metrics.EXACT_COUNTS} == \
        {n: b[n]["value"] for n in metrics.EXACT_COUNTS}


def _compare_rows(before, after):
    proc = _bench(ROOT, "--compare", before, after)
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines() if line.startswith("| ")][1:]


def test_compare_gives_one_row_per_workload(toy_runs, workdir):
    rows = _compare_rows(workdir / "a", workdir / "b")
    assert [row.split(" | ")[0].lstrip("| ") for row in rows] == \
        [f"{w} (toy)" for w in sorted(WORKLOADS)]
    assert all("->" in row and row.endswith("same (1 pairs) | same (2 pairs) |") for row in rows)


def _altered_copy(src, dst, change):
    dst.mkdir()
    for path in src.glob("*-trace0-toy.json"):
        with open(path) as fh:
            record = json.load(fh)
        change(record)
        with open(dst / path.name, "w") as fh:
            json.dump(record, fh)


def test_compare_flags_changed_output_digests(toy_runs, workdir):
    def change(record):
        name = sorted(record["digests"])[0]
        record["digests"][name] = "0" * 64
    _altered_copy(workdir / "b", workdir / "changed", change)
    rows = _compare_rows(workdir / "a", workdir / "changed")
    assert len(rows) == len(WORKLOADS)
    assert all("| CHANGED: " in row for row in rows)


def test_compare_pairs_only_matching_seeds(toy_runs, workdir):
    _altered_copy(workdir / "b", workdir / "other_seed", lambda r: r.update(seed=SEED + 1))
    rows = _compare_rows(workdir / "a", workdir / "other_seed")
    assert rows and all("->" not in row and "no matched seeds" in row for row in rows)


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = _bench(bare, "--workload", "desk_pipeline", "--seed", 1, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
