"""Reference solver the HiGHS backends are certified against.

A pure-Python depth-first branch-and-bound over the assignment ILP of
``repro.core.ilp``: exact but exponential in the job count, so only for
the small instances tests build.
"""

from __future__ import annotations

import math

from repro.core.ilp import AssignmentProblem, AssignmentSolution


def solve_exact(problem: AssignmentProblem) -> AssignmentSolution:
    """The optimal assignment of a small instance.

    Jobs are visited in order; the bound adds each remaining job's best
    feasible utility, ignoring capacity (admissible, hence never prunes
    the optimum).
    """
    n = problem.n_jobs
    options: list[list[tuple[float, int]]] = []
    for i in range(n):
        row = problem.utilities[i]
        feasible = [(float(row[j]), j) for j in range(problem.n_configs)
                    if not math.isnan(row[j])]
        feasible.sort(reverse=True)
        if i in problem.forced:
            feasible = [(u, j) for u, j in feasible if j == problem.forced[i]]
        options.append(feasible)
    best_tail = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = max((u for u, _ in options[i]), default=0.0)
        best_tail[i] = best_tail[i + 1] + max(0.0, top)

    best_obj = -math.inf
    best_assignment: dict[int, int] = {}

    def dfs(i: int, value: float, remaining: dict[str, int],
            chosen: dict[int, int]) -> None:
        nonlocal best_obj, best_assignment
        if value + best_tail[i] <= best_obj:
            return
        if i == n:
            if value > best_obj:
                best_obj = value
                best_assignment = dict(chosen)
            return
        # Option: skip this job (not allowed if forced).
        if i not in problem.forced:
            dfs(i + 1, value, remaining, chosen)
        for utility, j in options[i]:
            gpu_type = problem.config_types[j]
            need = int(problem.config_gpus[j])
            if remaining.get(gpu_type, 0) < need:
                continue
            remaining[gpu_type] -= need
            chosen[i] = j
            dfs(i + 1, value + utility, remaining, chosen)
            del chosen[i]
            remaining[gpu_type] += need

    dfs(0, 0.0, dict(problem.capacities), {})
    if not math.isfinite(best_obj):
        raise RuntimeError("exact solver found no feasible assignment")
    return AssignmentSolution(best_assignment, best_obj, 0.0, backend="exact")
