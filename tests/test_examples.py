"""Smoke tests: the example scripts must run end-to-end.

Only the fast examples run here; the slower ones (scheduler comparison,
scalability) are exercised implicitly by the benchmark harness, which runs
the same code paths.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Cluster-level metrics" in out
    assert "sia" in out


def test_hybrid_parallel():
    out = run_example("hybrid_parallel.py")
    assert "throughput scaling" in out
    assert "GPT finished" in out


def test_mixed_workloads():
    out = run_example("mixed_workloads.py")
    assert "Mixed workload under Sia" in out
    assert "reserved" in out
