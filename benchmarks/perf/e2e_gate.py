"""Gate one saved ``benchmarks/e2e/bench.py`` output on its decisions.

Passes when the run's result line says ``"correct": true`` and its
``report:`` line carries the expected decision digest, so a change that
moves a seeded decision fails here rather than only in review::

    python3 benchmarks/e2e/bench.py --workload sia-helios64 --seed 1 \\
        --seconds 0 --trace 0 > BENCH_e2e_helios64.txt 2>&1
    python3 benchmarks/perf/e2e_gate.py BENCH_e2e_helios64.txt <digest>

Exits 0 when both hold, 1 otherwise (a missing line included) and 2
on bad usage.
"""

from __future__ import annotations

import json
import sys

REPORT_PREFIX = "report: "


def check(text: str, expected_digest: str) -> list[str]:
    """Problems with one bench.py output; empty when it passes."""
    lines = text.splitlines()
    problems = []
    try:
        correct = json.loads(lines[-1])["correct"] is True
    except (IndexError, KeyError, TypeError, ValueError):
        correct = False
    if not correct:
        problems.append("result line missing or not correct")
    reports = [json.loads(line[len(REPORT_PREFIX):]) for line in lines
               if line.startswith(REPORT_PREFIX)]
    digest = reports[-1].get("digest") if reports else None
    if digest != expected_digest:
        problems.append(f"decision digest {digest} != {expected_digest}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: e2e_gate.py BENCH_OUTPUT EXPECTED_DIGEST",
              file=sys.stderr)
        return 2
    path, expected = argv
    with open(path) as fh:
        problems = check(fh.read(), expected)
    for problem in problems:
        print(f"e2e gate: {problem}", file=sys.stderr)
    if not problems:
        print(f"e2e gate: correct, digest {expected[:12]}…")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
