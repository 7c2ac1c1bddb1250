"""Capture the policy bench's MILP fixture from one sia-helios64 pass.

Runs one untraced seed-1 pass of the end-to-end ``sia-helios64`` workload
(``benchmarks/e2e/scenarios.py``), records every instance the ``milp``
backend receives, and writes every 8th one, NaN cells as ``null``.  The
configuration columns and capacities are the same in every round, so
they are stored once.  ``policy_bench.py`` times the ``milp`` backend
over these instances: captured rounds make the solver search, where the
synthetic policy points leave every GPU type slack.

Run:  PYTHONPATH=src python benchmarks/perf/milp_fixture.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from repro.core import ilp

FIXTURE = Path(__file__).with_name("milp_helios64.json")

#: keep one captured instance in this many.
STRIDE = 8


def capture() -> list[ilp.AssignmentProblem]:
    """Every ``milp`` instance of one untraced seed-1 sia-helios64 pass."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "e2e"))
    import scenarios

    captured = []
    solve = ilp._solve_milp

    def recording(problem, time_limit=None):
        captured.append(problem)
        return solve(problem, time_limit=time_limit)

    ilp._solve_milp = recording
    try:
        with tempfile.TemporaryDirectory() as workdir:
            scenarios.sia_helios64(1, False, Path(workdir)) \
                .simulator.run()
    finally:
        ilp._solve_milp = solve
    return captured


def encode(problems: list[ilp.AssignmentProblem]) -> str:
    """The fixture text: shared columns once, one instance per line."""
    first = problems[0]
    shared = {"config_gpus": first.config_gpus.tolist(),
              "config_types": first.config_types,
              "capacities": first.capacities}
    lines = []
    for problem in problems:
        if (problem.config_gpus.tolist() != shared["config_gpus"]
                or problem.config_types != shared["config_types"]
                or problem.capacities != shared["capacities"]):
            raise ValueError("instances disagree on their columns")
        rows = [[None if math.isnan(v) else v for v in row]
                for row in problem.utilities.tolist()]
        forced = {str(i): j for i, j in problem.forced.items()}
        lines.append(json.dumps({"utilities": rows, "forced": forced},
                                separators=(",", ":")))
    header = json.dumps(shared, separators=(",", ":"))[:-1]
    return header + ',"instances":[\n' + ",\n".join(lines) + "\n]}\n"


def load() -> list[ilp.AssignmentProblem]:
    data = json.loads(FIXTURE.read_text())
    return [ilp.AssignmentProblem(
        utilities=[[math.nan if v is None else v for v in row]
                   for row in instance["utilities"]],
        config_gpus=data["config_gpus"],
        config_types=data["config_types"],
        capacities=data["capacities"],
        forced={int(i): j for i, j in instance["forced"].items()})
        for instance in data["instances"]]


if __name__ == "__main__":
    problems = capture()[::STRIDE]
    FIXTURE.write_text(encode(problems))
    print(f"wrote {len(problems)} instances to {FIXTURE}")
