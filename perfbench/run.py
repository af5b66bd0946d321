#!/usr/bin/env python3
"""latentmap benchmark: seeded workloads timed in-process through the public API and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one process each
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B    # two result sets, one row per workload

``--trace 0`` measures the end-to-end metrics with nothing wrapped. ``--trace 1``
is the separate traced run: it times the operation untraced, then installs
wrappers around every public function of latentmap's modules, repeats set-up
and the operation, and reports the per-layer metrics plus the tracing
overhead. Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(environment, per-operation latencies, digests, problems) goes to
``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk_pipeline", "slide_4096", "infer_stream")

# Timed operations per run at least, and exactly in a traced run (so that its
# counts repeat); infer_stream makes 100 calls, so that ten lie beyond p90.
MIN_OPS = {"full": {"desk_pipeline": 1, "slide_4096": 1, "infer_stream": 100},
           "toy": {"desk_pipeline": 1, "slide_4096": 1, "infer_stream": 5}}

# The median infer call is left out: host phases make it bimodal (see README.md).
END_TO_END = [("setup_s", "s"), ("op_ms_p90", "ms"), ("peak_rss_mb", "MB")]


def import_program():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "latentmap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latentmap sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import latentmap
    if Path(latentmap.__file__).resolve().parent != (src / "latentmap").resolve():
        sys.exit(f"perfbench: imported latentmap from {latentmap.__file__}, not {src}")
    return latentmap


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _l3_size():
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        if _read(index / "level") == "3":
            return _read(index / "size")
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    a = np.ones((256, 256))
    a @ a  # start the BLAS thread pool before counting threads
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, "l3_cache": _l3_size(),
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "process_threads_after_blas_call": threads,
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "seed": seed}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1]) of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _attempt(workload, state, i, problems):
    """One timed operation; an exception counts as a failed operation."""
    try:
        return workload.op(state, i)
    except Exception:
        problems.append(f"op {i}: {traceback.format_exc(limit=3)}")
        return None


def _verify(workload, records, problems):
    """Check every (op index, record) after timing; returns (failed ops, digests, quality means)."""
    failed, digests, quality = 0, {}, {}
    for i, rec in records:
        try:
            found, dig, qual = workload.verify(rec)
        except Exception:
            found, dig, qual = [traceback.format_exc(limit=3)], {}, {}
        if found:
            failed += 1
            problems += [f"op {i}: {p}" for p in found]
        digests.update({f"op{i}/{k}": v for k, v in dig.items()})
        for k, v in qual.items():
            quality.setdefault(k, []).append(v)
    return failed, digests, {k: statistics.mean(v) for k, v in quality.items()}


def _run_ops(workload, state, count, seconds, problems):
    """At least ``count`` operations, more while the next one is expected to end
    within ``seconds`` of the first one's start."""
    latencies, records, attempted = [], [], 0
    start = time.perf_counter()
    while attempted < count or (
            time.perf_counter() - start + (statistics.median(latencies) if latencies else 0.0)
            <= seconds):
        out = _attempt(workload, state, attempted, problems)
        if out is not None:
            latencies.append(out[0])
            records.append((attempted, out[1]))
        attempted += 1
    return latencies, records, attempted


def measure(workload, work, seconds, min_ops, setups):
    problems, setup_times, state = [], [], None
    for r in range(setups):
        sub = work / f"setup{r}"
        sub.mkdir(parents=True)
        t0 = time.perf_counter()
        state = workload.setup(str(sub))
        setup_times.append(time.perf_counter() - t0)
        if r < setups - 1:
            shutil.rmtree(sub)
    t0 = time.perf_counter()
    latencies, records, attempted = _run_ops(workload, state, min_ops, seconds, problems)
    t1 = time.perf_counter()
    # set-up and the timed operations only, not the output checks that follow
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed, digests, quality = _verify(workload, records, problems)
    failed += attempted - len(records)
    verify_s = time.perf_counter() - t1
    ms = [t * 1e3 for t in latencies] or [0.0]
    metrics = {"setup_s": statistics.median(setup_times), "op_ms_p90": _quantile(ms, 0.9),
               "peak_rss_mb": peak_rss_mb}
    detail = {"setup_times_s": setup_times, "ops_wall_s": t1 - t0, "verify_s": verify_s,
              "op_ms": ms, "quality": quality,
              "digests": digests, "problems": problems}
    return attempted, failed, metrics, detail


def untraced_baseline(args, work):
    """The same workload and seed measured untraced in a fresh process.

    A fresh process keeps the comparison fair: the first operation in a
    process pays for growing the heap, which a traced operation run after an
    untraced one in the same process would not.
    """
    out = work / "baseline"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setups", "1",
           "--results", str(out)]
    proc = subprocess.run(cmd + (["--toy"] if args.toy else []), cwd=ROOT,
                          stdout=subprocess.DEVNULL, check=False)
    results = list(out.glob("*.json"))
    if proc.returncode != 0 or len(results) != 1:
        raise RuntimeError(f"untraced baseline run exited with code {proc.returncode}")
    with open(results[0]) as fh:
        return json.load(fh)


def measure_traced(workload, work, ops, package, spans_path, baseline):
    from metrics import layer_metrics
    from tracing import Tracer

    problems = [f"untraced baseline: {p}" for p in baseline["problems"]]
    (work / "traced").mkdir(parents=True)
    with Tracer().install(package) as tracer:
        state = workload.setup(str(work / "traced"))
        tracer.start_ops()
        traced, records, n_traced = _run_ops(workload, state, ops, 0, problems)
    failed, digests, quality = _verify(workload, records, problems)
    failed += n_traced - len(records) + baseline["failed"]
    # the headline metric, op_ms_p90, traced against untraced
    base = _quantile(baseline["op_ms"], 0.9)
    traced_ms = [t * 1e3 for t in traced]
    overhead = (_quantile(traced_ms, 0.9) - base) / base * 100.0 if traced_ms and base else 0.0
    metrics = layer_metrics(tracer, overhead, quality)
    tracer.dump(spans_path)
    detail = {"untraced_op_ms": baseline["op_ms"], "traced_op_ms": traced_ms,
              "spans": len(tracer.spans), "quality": quality, "digests": digests,
              "problems": problems}
    return n_traced + baseline["attempted"], failed, metrics, detail


def run_workload(args):
    package = import_program()
    import metrics
    import workloads

    size = "toy" if args.toy else "full"
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[size][args.workload])
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    env = environment(args.seed)
    try:
        if args.trace:
            work.mkdir(parents=True)
            attempted, failed, values, detail = measure_traced(
                workload, work, MIN_OPS[size][args.workload], package,
                results / f"{stem}-spans.json", untraced_baseline(args, work))
            units = metrics.UNITS
        else:
            attempted, failed, values, detail = measure(
                workload, work, args.seconds, MIN_OPS[size][args.workload], args.setups)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size, "environment": env,
              "batch": workloads.SIZES[size][args.workload].get("batch"), **result, **detail}
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_summary(record)
    print(json.dumps(result), flush=True)
    return 0


def print_summary(record):
    """Human-readable lines; the workload-specific names are views of the generic metrics."""
    w, m = record["workload"], record["metrics"]
    env = record["environment"]
    print(f"# {w} seed={record['seed']} trace={record['trace']} size={record['size']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']!r} l3={env['l3_cache']} "
          f"blas={env['blas_name']} {env['blas_version']} "
          f"threads={env['process_threads_after_blas_call']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for name, v in m.items():
        print(f"{name} {v['value']:.6g} {v['unit']}")
    for name, v in record.get("quality", {}).items():
        print(f"{name} {v:.6g} fraction")
    print(f"error_rate {record['failed'] / max(record['attempted'], 1):.6g} fraction")
    if record["trace"]:
        return
    ops = sorted(record["op_ms"])
    if w == "infer_stream":
        n = len(ops)
        print(f"infer_ms_p50 {statistics.median(ops):.6g} ms ({n} calls)")
        print(f"infer_ms_p90 {m['op_ms_p90']['value']:.6g} ms "
              f"({sum(1 for t in ops if t > m['op_ms_p90']['value'])} calls beyond)")
        if sum(ops) > 0:
            print(f"infer_cells_per_s {len(ops) * record['batch'] / (sum(ops) / 1e3):.6g} "
                  f"cells/s (batch of {record['batch']})")
    else:
        print(f"train_s {statistics.median(ops) / 1e3:.6g} s ({len(ops)} timed operations)")


# ---------------------------------------------------------------------------
# every workload, one process each
# ---------------------------------------------------------------------------

def run_all(args):
    overall = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--setups", str(args.setups), "--results", args.results]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        overall["correct"] &= result["correct"]
        overall["attempted"] += result["attempted"]
        overall["failed"] += result["failed"]
        overall["workloads"][name] = result
    print(json.dumps(overall), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement window per run (operations keep starting while "
                             "the next is expected to end inside it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per untraced run; setup_s is their median")
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long sizes of every workload, for the harness's tests")
    parser.add_argument("--results", default=str(HERE / "results"),
                        help="directory for result files (default perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two directories of result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(Path(args.compare[0]), Path(args.compare[1]), ROOT / "BENCHMARK.json")
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
