"""The benchmark's span tracer still finds every function it wraps.

``benchmarks/spans.py`` rebinds named functions of the ``treelab`` modules;
a refactor that renames or hides one fails here rather than in every
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_traced(tmp_path, command, *args):
    """Run ``command`` under spans.py on a 4-row toy table; the stats it wrote."""
    train = tmp_path / "train.csv"
    train.write_text("a,label\n1,A\n2,A\n3,B\n4,B\n")
    test = tmp_path / "test.csv"
    test.write_text("a\n1\n4\n")
    files = (["--dataset", str(train)] if command == "benchmark"
             else ["--train", str(train), "--test", str(test)])
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "spans.py"), str(stats), "trace", "--",
         command, *files, *args, "--min-count", "1", "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(stats.read_text())
    assert result["layers"].get("tracing.bad_spans", 0) == 0
    return result


@pytest.mark.parametrize("algorithm", ["dt", "lazy", "batched"])
def test_traced_trace_command(tmp_path, algorithm):
    result = run_traced(tmp_path, "trace", "--algorithm", algorithm)
    assert algorithm in result["algorithms"]


@pytest.mark.parametrize("command, args, algorithms", [
    ("benchmark", ["--folds", "2", "--bootstraps", "1", "--algorithms", "dt,lazy,batched"],
     ["dt", "lazy", "batched"]),
    ("predict", ["--algorithm", "dt", "--bootstraps", "1"], ["dt"]),
])
def test_traced_benchmark_and_predict(tmp_path, command, args, algorithms):
    # run_cv/run_fold spans and the rebound model_word_count under tier-1
    result = run_traced(tmp_path, command, *args)
    for algorithm in algorithms:
        assert algorithm in result["algorithms"]
    if command == "benchmark":
        assert result["layers"]["bench.run_fold.calls"] == 2 * len(algorithms)
    assert result["layers"]["metrics.model_word_count.calls"] >= 1
