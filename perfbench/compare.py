"""Compare two directories of benchmark result files, one row per workload.

For each end-to-end metric a cell shows the median and quartiles of the
runs before and after, and the share of seed-matched pairs the after side
won. The verdict follows the benchmark's bounds from BENCHMARK.json:

* ``unresolved``: the quartile spread of either side, as a share of its
  median, exceeds the metric's bound, and neither side beat the other on
  every run;
* ``regression``: the after median is worse than the before median by more
  than the bound;
* ``gain``: the after side won at least nine tenths of the pairs and the
  medians differ by more than the before side's quartile spread;
* ``same``: none of the above.

Only runs of one seed and one size are paired; a workload whose sides share
no seed gets no verdict. Traced results (``--trace 1``) are compared on the
per-layer counts that must repeat exactly for one seed; any change is
listed. The sha256 of every output file of one seed is compared too: a
change is flagged, not failed, because a legitimate rounding change also
alters it.
"""

import json
import statistics
from collections import defaultdict

from metrics import EXACT_COUNTS


def load(directory):
    """{(workload, size, trace): {seed: record}} from every result file in ``directory``."""
    out = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        with open(path) as fh:
            record = json.load(fh)
        out[record["workload"], record["size"], record["trace"]][record["seed"]] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(before, after):
    return [(before[s], after[s]) for s in sorted(set(before) & set(after))]


def metric_cell(name, spec, before, after):
    """Text for one metric: quartiles on each side, pairs won, verdict."""
    lower = spec["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in before.values()]
    a = [r["metrics"][name]["value"] for r in after.values()]
    bq, aq = quartiles(b), quartiles(a)
    pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
             for x, y in _pairs(before, after)]
    won = sum(1 for x, y in pairs if (y < x if lower else y > x))
    worse = (aq[1] - bq[1]) / bq[1] * (1 if lower else -1)
    spread = max((bq[2] - bq[0]) / bq[1], (aq[2] - aq[0]) / aq[1])
    all_better = min(a) > max(b) if not lower else max(a) < min(b)
    all_worse = max(a) < min(b) if not lower else min(a) > max(b)
    if spread > spec["bound"] and not (all_better or all_worse):
        verdict = "unresolved"
    elif worse > spec["bound"]:
        verdict = "regression"
    elif pairs and won >= 0.9 * len(pairs) and abs(aq[1] - bq[1]) > bq[2] - bq[0]:
        verdict = "gain"
    else:
        verdict = "same"
    return (f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] -> {aq[1]:.4g} [{aq[0]:.4g}, {aq[2]:.4g}] "
            f"{spec['unit']}, won {won}/{len(pairs)}, {worse:+.1%} worse, {verdict}")


def count_changes(before, after):
    changed = []
    for x, y in _pairs(before, after):
        for name in EXACT_COUNTS:
            vx, vy = x["metrics"][name]["value"], y["metrics"][name]["value"]
            if vx != vy:
                changed.append(f"{name} {vx:g}->{vy:g} (seed {x['seed']})")
    return changed


def digest_changes(before, after):
    """Output files, present on both sides of one seed, whose sha256 differs."""
    changed = []
    for x, y in _pairs(before, after):
        shared = sorted(set(x["digests"]) & set(y["digests"]))
        changed += [f"{name} (seed {x['seed']})" for name in shared
                    if x["digests"][name] != y["digests"][name]]
    return changed


def main(before_dir, after_dir, benchmark_json):
    with open(benchmark_json) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    before, after = load(before_dir), load(after_dir)
    rows = sorted({(w, size) for w, size, _ in before} & {(w, size) for w, size, _ in after})
    if not rows:
        print("no workload has results on both sides")
        return 1
    print("| workload | " + " | ".join(specs) + " | exact counts | output digests |")
    print("|" + "---|" * (len(specs) + 3))
    for w, size in rows:
        b, a = before.get((w, size, 0), {}), after.get((w, size, 0), {})
        tb, ta = before.get((w, size, 1), {}), after.get((w, size, 1), {})
        cells = [metric_cell(name, spec, b, a) if _pairs(b, a) else "no matched seeds"
                 for name, spec in specs.items()]
        if _pairs(tb, ta):
            changed = count_changes(tb, ta)
            cells.append("; ".join(changed) if changed else f"same ({len(_pairs(tb, ta))} pairs)")
        else:
            cells.append("no matched traced seeds")
        pairs = _pairs(b, a) + _pairs(tb, ta)
        changed = digest_changes(b, a) + digest_changes(tb, ta)
        if not pairs:
            cells.append("no matched seeds")
        else:
            cells.append(f"CHANGED: {'; '.join(changed)}" if changed else f"same ({len(pairs)} pairs)")
        label = w if size == "full" else f"{w} ({size})"
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0
