"""The benchmark harness at toy size: every workload runs and checks out correct.

The harness binds names of the program (``vae.save_vae``, ``vae.LatentMatrix``,
``pipeline._pretrain_shared_init`` and more); renaming one breaks the benchmark,
and this test shows it. The traced run (``--trace 1``) also binds the arguments
and results its after-hooks read, such as ``layers.load_checkpoint``'s path,
``train_discriminator``'s 3-tuple and ``sample_negatives``' first argument.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_toy_benchmark_runs_every_workload_correctly(tmp_path, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--toy", "--seconds", "0.5",
                           "--setups", "1", "--trace", trace, "--results", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a traced run also writes each workload's spans beside its result
    results = {p.name: json.loads(p.read_text()) for p in tmp_path.glob("*-toy.json")}
    assert len(results) == 3, sorted(results)
    for name, result in results.items():
        assert result["correct"] is True and result["failed"] == 0, (name, result["problems"])
