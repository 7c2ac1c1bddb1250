"""Tests for the assignment ILP: correctness of each backend and
MILP-vs-exact cross-checks on random instances.  ``exact`` is the
branch-and-bound oracle in ``tests/oracle.py``, not a solver backend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ilp import AssignmentProblem, solve_assignment
from tests.oracle import solve_exact

NAN = math.nan


def solve(p: AssignmentProblem, backend: str):
    """A backend's solution, or the oracle's for ``backend='exact'``."""
    if backend == "exact":
        return solve_exact(p)
    return solve_assignment(p, backend=backend)


def problem(utilities, gpus, types, caps, forced=None) -> AssignmentProblem:
    return AssignmentProblem(utilities=np.array(utilities, dtype=float),
                             config_gpus=np.array(gpus),
                             config_types=list(types),
                             capacities=dict(caps),
                             forced=forced or {})


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            problem([[1.0, 2.0]], [1], ["t4"], {"t4": 4})

    def test_forced_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            problem([[1.0]], [1], ["t4"], {"t4": 4}, forced={0: 5})

    def test_forced_infeasible_rejected(self):
        with pytest.raises(ValueError):
            problem([[NAN]], [1], ["t4"], {"t4": 4}, forced={0: 0})


class TestPaperExample:
    """The Table 1 running example: two jobs, configurations
    (1,1,A),(1,2,A),(1,1,B),(1,2,B),(1,4,B); optimum is J1->(1,4,B),
    J2->(1,2,A)."""

    UTILITIES = [[1.0, 2.0, 1.0, 2.0, 3.0],
                 [2.0, 4.0, 1.0, 2.0, 3.0]]
    GPUS = [1, 2, 1, 2, 4]
    TYPES = ["A", "A", "B", "B", "B"]
    CAPS = {"A": 2, "B": 4}

    @pytest.mark.parametrize("backend", ["milp", "exact"])
    def test_boxed_solution(self, backend):
        p = problem(self.UTILITIES, self.GPUS, self.TYPES, self.CAPS)
        solution = solve(p, backend)
        assert solution.assignment == {0: 4, 1: 1}
        assert solution.objective == pytest.approx(7.0)


class TestBackends:
    @pytest.mark.parametrize("backend", ["milp", "exact", "greedy"])
    def test_empty_feasible_set(self, backend):
        p = problem([[NAN, NAN]], [1, 2], ["t4", "t4"], {"t4": 4})
        solution = solve(p, backend)
        assert solution.assignment == {}

    @pytest.mark.parametrize("backend", ["milp", "exact", "greedy"])
    def test_capacity_never_violated(self, backend):
        p = problem([[5.0, 9.0], [5.0, 9.0]], [2, 4], ["t4", "t4"], {"t4": 4})
        solution = solve(p, backend)
        used = solution.gpus_used(p)
        assert used.get("t4", 0) <= 4

    @pytest.mark.parametrize("backend", ["milp", "exact", "greedy"])
    def test_at_most_one_config_per_job(self, backend):
        p = problem([[1.0, 2.0, 3.0]], [1, 1, 1], ["t4"] * 3, {"t4": 8})
        solution = solve(p, backend)
        assert len(solution.assignment) <= 1

    @pytest.mark.parametrize("backend", ["milp", "exact"])
    def test_forced_assignment_honoured(self, backend):
        p = problem([[10.0, 1.0], [10.0, 1.0]], [4, 1], ["t4", "t4"],
                    {"t4": 4}, forced={1: 0})
        solution = solve(p, backend)
        assert solution.assignment[1] == 0
        # Job 0 cannot also take the 4-GPU config.
        assert solution.assignment.get(0) != 0

    def test_greedy_forced_assignment(self):
        p = problem([[10.0, 1.0]], [4, 1], ["t4", "t4"], {"t4": 4},
                    forced={0: 1})
        solution = solve_assignment(p, backend="greedy")
        assert solution.assignment[0] == 1

    def test_unknown_backend(self):
        p = problem([[1.0]], [1], ["t4"], {"t4": 1})
        with pytest.raises(ValueError):
            solve_assignment(p, backend="quantum")

    def test_negative_utility_left_unassigned(self):
        p = problem([[-5.0]], [1], ["t4"], {"t4": 4})
        for backend in ("milp", "exact", "greedy"):
            solution = solve(p, backend)
            assert solution.assignment == {}

    def test_solve_time_recorded(self):
        p = problem([[1.0]], [1], ["t4"], {"t4": 1})
        assert solve_assignment(p).solve_time >= 0


@st.composite
def random_instances(draw):
    n_jobs = draw(st.integers(1, 5))
    n_configs = draw(st.integers(1, 6))
    types = [draw(st.sampled_from(["A", "B"])) for _ in range(n_configs)]
    gpus = [draw(st.sampled_from([1, 2, 4])) for _ in range(n_configs)]
    caps = {"A": draw(st.integers(0, 8)), "B": draw(st.integers(0, 8))}
    utilities = []
    for _ in range(n_jobs):
        row = []
        for _ in range(n_configs):
            if draw(st.booleans()):
                row.append(draw(st.floats(0.1, 10.0)))
            else:
                row.append(NAN)
        utilities.append(row)
    return problem(utilities, gpus, types, caps)


class TestCrossCheck:
    @settings(max_examples=60, deadline=None)
    @given(instance=random_instances())
    def test_milp_matches_exact_optimum(self, instance):
        milp = solve_assignment(instance, backend="milp")
        exact = solve_exact(instance)
        assert milp.objective == pytest.approx(exact.objective, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(instance=random_instances())
    def test_greedy_never_beats_optimum(self, instance):
        greedy = solve_assignment(instance, backend="greedy")
        exact = solve_exact(instance)
        assert greedy.objective <= exact.objective + 1e-9
