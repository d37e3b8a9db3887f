"""One short traced run of each benchmark workload, end to end.

`perfbench/run.py` exits nonzero, with no result line, when its worker
crashes, fails to import or passes the run deadline; a case that raises or
answers wrongly is counted in the result instead. Either shows here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify-linear", "verify-uniform", "cli-roundtrip"])
def test_workload_runs_correct_and_traced(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines())
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["trace.mismatches"]["value"] == 0
    # the tracing wrappers find the minors and Pfaffians under matforms
    layers = record["allMetrics"]
    assert layers["matforms.minors_s"]["value"] > 0
    if workload.startswith("verify"):
        assert layers["matforms.pfaffians_s"]["value"] > 0
