"""Capture the policy bench's MILP fixtures from one end-to-end pass.

Runs one untraced seed-1 pass of an end-to-end Sia workload
(``benchmarks/e2e/scenarios.py``), records every instance the ``milp``
backend receives, and writes every 8th one, NaN cells as ``null``.  The
configuration columns and capacities are the same in every round, so
they are stored once.  ``policy_bench.py`` times the ``milp`` backend
over these instances: captured rounds make the solver search, where the
synthetic policy points leave every GPU type slack.  The sia-helios64
rounds bind capacity and exercise the lattice DP; the sia-scale1024
rounds rarely bind, but many have near-tied options.

Run:  PYTHONPATH=src python benchmarks/perf/milp_fixture.py \
          [--workload sia-helios64|sia-scale1024]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.core import ilp

#: the fixture each capturable workload writes.
FIXTURES = {"sia-helios64": Path(__file__).with_name("milp_helios64.json"),
            "sia-scale1024": Path(__file__).with_name("milp_scale1024.json")}

#: keep one captured instance in this many.
STRIDE = 8


@contextmanager
def recording() -> Iterator[list[ilp.AssignmentProblem]]:
    """Every instance the ``milp`` backend receives inside the block, in
    the list it yields."""
    captured: list[ilp.AssignmentProblem] = []
    solve = ilp._solve_milp

    def record(problem):
        captured.append(problem)
        return solve(problem)

    ilp._solve_milp = record
    try:
        yield captured
    finally:
        ilp._solve_milp = solve


def capture(workload: str) -> list[ilp.AssignmentProblem]:
    """Every ``milp`` instance of one untraced seed-1 pass of
    ``workload``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "e2e"))
    import scenarios

    with recording() as captured, \
            tempfile.TemporaryDirectory() as workdir:
        scenarios.WORKLOADS[workload](1, False, Path(workdir)) \
            .simulator.run()
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


def load(fixture: Path) -> list[ilp.AssignmentProblem]:
    data = json.loads(fixture.read_text())
    return [ilp.AssignmentProblem(
        utilities=[[math.nan if v is None else v for v in row]
                   for row in instance["utilities"]],
        config_gpus=data["config_gpus"],
        config_types=data["config_types"],
        capacities=data["capacities"],
        forced={int(i): j for i, j in instance["forced"].items()})
        for instance in data["instances"]]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FIXTURES),
                        default="sia-helios64")
    args = parser.parse_args(argv)
    fixture = FIXTURES[args.workload]
    problems = capture(args.workload)[::STRIDE]
    fixture.write_text(encode(problems))
    print(f"wrote {len(problems)} instances to {fixture}")


if __name__ == "__main__":
    main()
