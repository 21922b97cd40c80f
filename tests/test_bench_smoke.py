"""Smoke run of the repository benchmark with tracing on.

The tracer wraps package functions by name where their callers look them
up (`bench/tracing.py`); a wrapped name that stays but changes its
signature crashes a traced run. One zero-length traced run of every
workload guards that contract: each must finish with every output
checked correct and no failed operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {"explain-stream", "campaign", "centroid-cli"}
    for name, result in results.items():
        assert result["correct"] is True, (name, proc.stderr[-2000:])
        assert result["failed"] == 0, name
        assert result["attempted"] > 0, name
