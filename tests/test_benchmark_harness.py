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


@pytest.mark.parametrize("algorithm", ["dt", "lazy", "batched"])
def test_traced_trace_command(tmp_path, algorithm):
    train = tmp_path / "train.csv"
    train.write_text("a,label\n1,A\n2,A\n3,B\n4,B\n")
    test = tmp_path / "test.csv"
    test.write_text("a\n1\n4\n")
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "spans.py"), str(stats), "trace", "--",
         "trace", "--train", str(train), "--test", str(test), "--algorithm", algorithm,
         "--min-count", "1", "--out", str(tmp_path / "trace.txt")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(stats.read_text())
    assert result["layers"].get("tracing.bad_spans", 0) == 0
    assert algorithm in result["algorithms"]
