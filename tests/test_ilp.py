"""Tests for the assignment ILP: correctness of each backend, the HiGHS
options every MILP runs with, and MILP-vs-exact cross-checks on random
instances.  ``exact`` is the branch-and-bound oracle in
``tests/oracle.py``, not a solver backend."""

import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, OptimizeWarning, milp

from repro.core import ilp
from repro.core.ilp import AssignmentProblem, solve_assignment
from repro.jobs.job import make_job
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.sim import simulate
from tests.oracle import incumbent_rescan, solve_exact

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

    def test_untyped_config_gets_nothing_on_every_backend(self):
        """A GPU type without a capacity entry has capacity 0 on every
        backend, so its configs go unassigned and the solve succeeds."""
        p = problem([[1.0, 2.0], [NAN, 3.0]], [1, 1], ["A", "Z"], {"A": 1})
        for backend in ilp.BACKENDS:
            solution = solve_assignment(p, backend)
            served = "milp" if backend == "tiered" else backend
            assert solution.backend == served
            assert solution.assignment == {0: 0}
        assert ilp._solve_highs_milp(p).assignment == {0: 0}


#: an option no HiGHS build knows: what a build predating
#: ``ilp._MILP_OPTIONS`` sees.
UNKNOWN_OPTIONS = {"mip_heuristic_unknown_to_this_highs": False}


class TestHighsOptions:
    """Every HiGHS MILP passes ``ilp._MILP_OPTIONS``: optimality gap 0,
    HiGHS's default feasibility tolerance, and the
    feasibility-jump heuristic off.  No warning about those
    options escapes a solve, whether this HiGHS build knows them or not,
    and the answer stays optimal.  These solves call HiGHS directly; the
    ``milp`` backend would serve such small instances by the lattice
    DP."""

    @staticmethod
    def forced_instance() -> AssignmentProblem:
        return problem([[3.0, 5.0, NAN, 2.0],
                        [4.0, 6.0, 2.0, NAN],
                        [1.0, NAN, 7.0, 6.5],
                        [2.5, 4.5, 6.0, 6.0]],
                       [1, 2, 4, 2], ["A", "A", "B", "B"],
                       {"A": 3, "B": 4}, forced={0: 1, 3: 3})

    def test_gap_zero_at_the_dp_tolerance(self):
        options = ilp._MILP_OPTIONS
        assert options["mip_rel_gap"] == 0 and options["mip_abs_gap"] == 0
        assert options["mip_feasibility_tolerance"] == ilp._MIP_TOL
        assert not options["mip_heuristic_run_feasibility_jump"]

    @pytest.mark.parametrize("known", [True, False],
                             ids=["option-known", "option-unknown"])
    def test_milp_is_quiet_and_optimal(self, monkeypatch, known):
        if not known:
            monkeypatch.setattr(ilp, "_MILP_OPTIONS", UNKNOWN_OPTIONS)
        p = self.forced_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = ilp._solve_highs_milp(p)
        assert solution.objective == pytest.approx(
            solve_exact(p).objective, abs=1e-9)
        assert solution.assignment[0] == 1 and solution.assignment[3] == 3

    def test_milp_backend_serves_it_by_the_lattice(self, monkeypatch):
        def no_highs(*args, **kwargs):
            raise AssertionError("HiGHS was called")
        monkeypatch.setattr(ilp, "_solve_highs_milp", no_highs)
        p = self.forced_instance()
        solution = solve_assignment(p, "milp")
        assert solution.objective == pytest.approx(
            solve_exact(p).objective, abs=1e-9)
        assert solution.assignment[0] == 1 and solution.assignment[3] == 3

    @pytest.mark.parametrize("options", [ilp._MILP_OPTIONS, UNKNOWN_OPTIONS],
                             ids=["option-known", "option-unknown"])
    def test_scipy_warns_without_the_filter(self, options):
        """The quiet solves above are not vacuous: scipy's ``milp`` does
        warn about these options, and HiGHS about one it lacks."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            milp(c=[-1.0], integrality=[1], bounds=Bounds(0, 1),
                 options=dict(options))
        categories = {w.category for w in caught}
        assert RuntimeWarning in categories
        if options is UNKNOWN_OPTIONS:
            assert OptimizeWarning in categories


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
        milp = ilp._solve_highs_milp(instance)
        exact = solve_exact(instance)
        assert milp.objective == pytest.approx(exact.objective, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(instance=random_instances())
    def test_greedy_never_beats_optimum(self, instance):
        greedy = solve_assignment(instance, backend="greedy")
        exact = solve_exact(instance)
        assert greedy.objective <= exact.objective + 1e-9


@st.composite
def lattice_instances(draw):
    """Instances that reach every path of the lattice DP: NaN cells, zero
    capacity, a type that never binds (``C``), and forced pairs, which may
    not fit."""
    instance = draw(random_instances())
    n_jobs = instance.n_jobs
    extra = draw(st.integers(0, 2))
    if extra:
        columns = [[draw(st.floats(0.1, 10.0)) if draw(st.booleans())
                    else NAN for _ in range(n_jobs)] for _ in range(extra)]
        instance = problem(
            np.column_stack([instance.utilities, *columns]),
            [*instance.config_gpus, *[draw(st.sampled_from([1, 2]))
                                      for _ in range(extra)]],
            [*instance.config_types, *["C"] * extra],
            {**instance.capacities, "C": 2 * n_jobs})
    forced = {}
    for row in range(n_jobs):
        cols = np.flatnonzero(~np.isnan(instance.utilities[row])).tolist()
        if cols and draw(st.booleans()):
            forced[row] = draw(st.sampled_from(cols))
    instance.forced = forced
    return instance


def forced_fits(p: AssignmentProblem) -> bool:
    used: dict[str, int] = {}
    for col in p.forced.values():
        gpu_type = p.config_types[col]
        used[gpu_type] = used.get(gpu_type, 0) + int(p.config_gpus[col])
    return all(n <= p.capacities.get(t, 0) for t, n in used.items())


def plant_near_ties(data, p: AssignmentProblem,
                    exact: bool = False) -> np.ndarray:
    """``p``'s utilities with 1 to 3 options planted 1e-8 to 1e-3
    relative below another (same job or another job's option on the same
    config), or equal to it when ``exact``."""
    util = p.utilities.copy()
    cells = np.argwhere(~np.isnan(util))
    if not len(cells):
        return util
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = cells[data.draw(st.integers(0, len(cells) - 1))]
        rel = 0.0 if exact else 10.0 ** data.draw(st.floats(-8.0, -3.0))
        row = data.draw(st.integers(0, p.n_jobs - 1))
        col = data.draw(st.integers(0, p.n_configs - 1))
        if row == i and col == j:
            continue
        util[row, col] = util[i, j] * (1.0 - rel)
    return util


def spy_incumbent(monkeypatch) -> list:
    """Record every ``_incumbent(moves, room)`` call with its result."""
    calls = []
    real = ilp._incumbent

    def spy(moves, room):
        picks = real(moves, room)
        calls.append((moves, room, picks))
        return picks
    monkeypatch.setattr(ilp, "_incumbent", spy)
    return calls


def assert_feasible(p: AssignmentProblem, assignment: dict[int, int]):
    """``assignment`` fits capacity and keeps every forced pair."""
    ilp._validate(p, ilp._solution(p, assignment))


def objective(p: AssignmentProblem, assignment: dict[int, int]) -> float:
    return ilp._solution(p, assignment).objective


def lattice_modes(p: AssignmentProblem) -> dict[str, object]:
    """``_solve_lattice``'s answer, or ``"raised"``, with every stage
    dense, with every stage a dict, and with every stage a dict and no
    incumbent floor."""
    answers = {}
    for mode, share, floor in (("dense", 0.0, True),
                               ("sparse", math.inf, True),
                               ("no-floor", math.inf, False)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(ilp, "_DENSE_SHARE", share)
            if not floor:
                monkeypatch.setattr(ilp, "_incumbent", lambda *args: None)
            try:
                answers[mode] = ilp._solve_lattice(p)
            except RuntimeError:
                answers[mode] = "raised"
    return answers


def perf_bench(monkeypatch, name: str):
    """Import the module ``name`` of ``benchmarks/perf``."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
    return importlib.import_module(name)


class TestLattice:
    """The lattice DP behind ``milp``: exact against the oracle, and it
    answers every instance whose lattice fits :data:`ilp._DP_MAX_WORK`.
    Its incumbent floor drops only states that cannot reach the optimum,
    so answers are those of the full lattice."""

    @settings(max_examples=200, deadline=None)
    @given(instance=lattice_instances())
    def test_matches_exact_optimum(self, instance):
        if not forced_fits(instance):
            with pytest.raises(RuntimeError):
                ilp._solve_lattice(instance)
            with pytest.raises(RuntimeError):
                solve_assignment(instance, "milp")
            return
        exact = solve_exact(instance)
        path, assignment = ilp._solve_lattice(instance)
        assert path in ("argmax", "dp")
        assert_feasible(instance, assignment)
        assert objective(instance, assignment) == pytest.approx(
            exact.objective, abs=1e-9)
        assert list(assignment) == sorted(assignment)
        milp = solve_assignment(instance, "milp")
        assert milp.objective == pytest.approx(exact.objective, abs=1e-9)

    @staticmethod
    def spy_highs(monkeypatch) -> list:
        calls = []
        real = ilp._solve_highs_milp

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(ilp, "_solve_highs_milp", spy)
        return calls

    def test_unique_optimum_skips_highs(self, monkeypatch):
        calls = self.spy_highs(monkeypatch)
        p = problem(TestPaperExample.UTILITIES, TestPaperExample.GPUS,
                    TestPaperExample.TYPES, TestPaperExample.CAPS)
        assert solve_assignment(p, "milp").assignment == {0: 4, 1: 1}
        assert not calls

    def test_work_above_the_cap_goes_to_highs(self, monkeypatch):
        """Three binding types of 200 GPUs: 201^3 lattice cells."""
        n_jobs = 30
        utilities = np.linspace(1.0, 2.0, n_jobs * 3).reshape(n_jobs, 3)
        p = problem(utilities, [8, 8, 8], ["A", "B", "C"],
                    {"A": 200, "B": 200, "C": 200})
        assert 201 ** 3 * 4 * n_jobs > ilp._DP_MAX_WORK
        assert ilp._solve_lattice(p) is None
        calls = self.spy_highs(monkeypatch)
        solution = solve_assignment(p, "milp")
        assert len(calls) == 1
        assert solution.objective == pytest.approx(
            ilp._solve_highs_milp(p).objective)

    @staticmethod
    def near_tie(kind: str, rel: float) -> AssignmentProblem:
        """Two options ``rel`` apart relative to the optimum 1.0.  Slack:
        one job picks between two configs and capacity never binds, so
        the argmax check decides.  Binding: two jobs want the one GPU, so
        the DP decides."""
        if kind == "slack":
            return problem([[1.0, 1.0 - rel]], [1, 1], ["A", "A"], {"A": 2})
        return problem([[1.0], [1.0 - rel]], [1], ["A"], {"A": 1})

    @pytest.mark.parametrize("kind", ["slack", "binding"])
    def test_runner_up_beyond_the_margin_skips_highs(self, monkeypatch,
                                                     kind):
        """1e-5 relative, beyond HiGHS's tolerance: the lattice answers,
        and HiGHS picks the same assignment."""
        p = self.near_tie(kind, 1e-5)
        path = "argmax" if kind == "slack" else "dp"
        assert ilp._solve_lattice(p) == (path, {0: 0})
        assert ilp._solve_highs_milp(p).assignment == {0: 0}
        calls = self.spy_highs(monkeypatch)
        solution = solve_assignment(p, "milp")
        assert solution.assignment == {0: 0} and solution.path == path
        assert not calls

    @pytest.mark.parametrize("rel", [1.5e-6, 0.0], ids=["near-tie", "tie"])
    @pytest.mark.parametrize("kind", ["slack", "binding"])
    def test_runner_up_within_highs_tolerance_stays_in_the_lattice(
            self, monkeypatch, kind, rel):
        """Inside ``2 * _MIP_TOL``, where HiGHS may return either option,
        the lattice still answers: the better option, or on an exact tie
        the first job's first option."""
        p = self.near_tie(kind, rel)
        assert rel < 2 * ilp._MIP_TOL
        path = "argmax" if kind == "slack" else "dp"
        assert ilp._solve_lattice(p) == (path, {0: 0})
        calls = self.spy_highs(monkeypatch)
        solution = solve_assignment(p, "milp")
        assert solution.path == path and not calls

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), binding=st.booleans())
    def test_answers_match_highs_on_planted_near_ties(self, data, binding):
        """On instances with options planted 1e-8 to 1e-3 relative below
        another (same job or another job's option on the same config),
        the lattice's answer is feasible and at least HiGHS's objective,
        which at gap 0 trails it by at most HiGHS's tolerance."""
        p = data.draw(random_instances())
        util = plant_near_ties(data, p)
        caps = dict(p.capacities)
        if not binding:  # every job's largest demand fits at once
            caps = {t: int(sum(p.config_gpus)) * p.n_jobs for t in caps}
        p = problem(util, p.config_gpus, p.config_types, caps)
        _, assignment = ilp._solve_lattice(p)
        assert_feasible(p, assignment)
        highs = ilp._solve_highs_milp(p).objective
        value = objective(p, assignment)
        assert highs - 1e-12 <= value <= highs + 2 * ilp._MIP_TOL * max(
            1.0, abs(highs))

    # -- the incumbent floor and the sparse/dense stages --

    @settings(max_examples=200, deadline=None)
    @given(instance=lattice_instances())
    def test_incumbent_is_a_feasible_floor(self, instance):
        """Whenever the DP runs, the incumbent picks one of each job's
        shifts, fits every binding dimension, and its value is at most
        the oracle's optimum; it is None exactly when the forced pairs
        exceed capacity.  Its lazy heap picks what a rescan of every job
        per change picks."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = spy_incumbent(monkeypatch)
            try:
                ilp._solve_lattice(instance)
            except RuntimeError:
                pass
        if not calls:  # the argmax check answered
            return
        (moves, room, picks), = calls
        assert picks == incumbent_rescan(moves, room)
        if not forced_fits(instance):
            assert picks is None
            return
        assert picks is not None and len(picks) == len(moves)
        used = [0] * len(room)
        for job, pick in zip(moves, picks):
            assert pick in job
            if pick[0] >= 0:
                used[pick[0]] += pick[1]
        assert all(n <= cap for n, cap in zip(used, room))
        value = sum(v for _, _, v in picks)
        assert value <= solve_exact(instance).objective + 1e-9

    def test_incumbent_heap_matches_rescan(self):
        """On seeded tie-heavy move lists, several dimensions over
        capacity, the lazy heap picks what a rescan of every job per
        change picks, ties included."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            room = rng.integers(0, 31, rng.integers(1, 5)).tolist()
            moves = []
            for _ in range(rng.integers(5, 41)):
                job = {(-1, 0): 0.0}
                for _ in range(rng.integers(0, 9)):
                    d = int(rng.integers(len(room)))
                    g = int(rng.choice([1, 2, 3, 4, 8]))
                    if g <= room[d]:
                        job[d, g] = float(rng.choice(
                            [1.0, 2.0, 4.0, 0.5 * g, 5 * rng.random()]))
                moves.append([(d, g, v) for (d, g), v in job.items()])
            assert ilp._incumbent(moves, room) \
                == incumbent_rescan(moves, room)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_floor_changes_no_answer(self, data):
        """The DP with every stage in the dict, where the floor drops
        states, answers (or raises) exactly as with every stage dense,
        where no state is dropped, on instances with planted near-ties
        and forced pairs that may not fit.  It never expands more."""
        p = data.draw(lattice_instances())
        p = problem(plant_near_ties(data, p), p.config_gpus,
                    p.config_types, p.capacities, p.forced)
        answers, work = [], []
        for share in (0.0, math.inf):
            expanded: list[int] = []
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(ilp, "_DENSE_SHARE", share)
                try:
                    answers.append(ilp._solve_lattice(p, expanded))
                except RuntimeError:
                    answers.append("raised")
            work.append(sum(expanded))
        assert answers[0] == answers[1]
        assert work[1] <= work[0]

    def test_suboptimal_incumbent_still_finds_the_optimum(self,
                                                          monkeypatch):
        """Four A GPUs: job 0 on three of them scores the best value per
        GPU, so the incumbent drops jobs 1 and 2 and keeps 3.3, but jobs
        1 and 2 together score 4.2."""
        p = problem([[3.3, NAN], [NAN, 2.1], [NAN, 2.1]], [3, 2],
                    ["A", "A"], {"A": 4})
        calls = spy_incumbent(monkeypatch)
        answer = ilp._solve_lattice(p)
        (_, _, picks), = calls
        assert sum(v for _, _, v in picks) == pytest.approx(3.3)
        assert solve_exact(p).objective == pytest.approx(4.2)
        assert answer == ("dp", solve_exact(p).assignment) \
            == ("dp", {1: 1, 2: 1})

    @pytest.mark.parametrize("cell", ["same", "another"])
    def test_runner_up_inside_the_margin_survives_the_floor(self,
                                                            monkeypatch,
                                                            cell):
        """The incumbent is the optimum and a runner-up trails it by
        1.5e-6 relative, inside the floor's slack: the floor keeps the
        runner-up's states, and the DP answers the optimum.  ``same``:
        the runner-up ends in the optimum's final cell (job 1 takes job
        0's GPU), so job 0's empty state after stage 1 (key 0) survives;
        ``another``: it ends in another final cell (job 0 moves from B to
        A, job 1 from two A GPUs to B), cell (A=1, B=1), key 3."""
        rel = 1.5e-6
        if cell == "same":
            p = problem([[1.0], [1.0 - rel]], [1], ["A"], {"A": 1})
            stage, key = 0, 0
        else:
            p = problem([[5.0, NAN, 5.0], [NAN, 1.0, 1.0 - 6.0 * rel]],
                        [1, 2, 1], ["A", "A", "B"], {"A": 2, "B": 1})
            stage, key = 1, 3
        exact = solve_exact(p)
        monkeypatch.setattr(ilp, "_DENSE_SHARE", math.inf)
        calls = spy_incumbent(monkeypatch)
        stages = []
        real = ilp._sparse_step

        def spy(*args):
            stages.append(real(*args))
            return stages[-1]
        monkeypatch.setattr(ilp, "_sparse_step", spy)
        assert ilp._solve_lattice(p) == ("dp", exact.assignment)
        (_, _, picks), = calls
        assert sum(v for _, _, v in picks) == exact.objective
        assert key in stages[stage]

    def test_flat_utility_crosses_into_the_dense_step(self, monkeypatch):
        """On flat utilities the live states outgrow the dict; the dense
        stages give the answers of a DP that never leaves the dict."""
        dense = []
        real = ilp._dense

        def spy(*args):
            dense.append(args)
            return real(*args)
        monkeypatch.setattr(ilp, "_dense", spy)
        instances = perf_bench(monkeypatch, "policy_bench").flat_utility(3)
        answers = [ilp._solve_lattice(p) for p in instances]
        assert len(dense) == len(instances)
        assert any(answer is not None for answer in answers)
        monkeypatch.setattr(ilp, "_DENSE_SHARE", math.inf)
        assert [ilp._solve_lattice(p) for p in instances] == answers
        assert len(dense) == len(instances)

    def test_expanded_counts_the_dp_work(self, monkeypatch):
        """The solution carries the DP's (state, shift) count.  Each job
        of the planted instance has two shifts; the incumbent is 3.3 and
        jobs 1 and 2 add at most 4.2, so the floor drops the empty state
        after job 1 (2.1 at most to come): 1 + 2 + 2 states expanded,
        where the dense boxes hold 1 + 49 + 65 cells.  The argmax path
        and the other backends count 0."""
        p = problem([[3.3, NAN], [NAN, 2.1], [NAN, 2.1]], [48, 32],
                    ["A", "A"], {"A": 64})
        solution = solve_assignment(p, "milp")
        assert solution.path == "dp" and solution.assignment == {1: 1, 2: 1}
        assert solution.expanded == 2 * (1 + 2 + 2)
        monkeypatch.setattr(ilp, "_DENSE_SHARE", 0.0)
        assert solve_assignment(p, "milp").expanded == 2 * (1 + 49 + 65)
        assert solve_assignment(p, "greedy").expanded == 0
        slack = solve_assignment(TestLattice.near_tie("slack", 1e-5), "milp")
        assert slack.path == "argmax" and slack.expanded == 0


class TestTieRule:
    """``milp``'s one tie rule (:func:`ilp._solve_lattice`): options rank
    in ``_options`` order, "no allocation" first; the argmax path gives
    each job its first best option, and the DP starts from the optimal
    final cell with the lowest key and backtracks to the first option
    that reproduces each cell's value.  Each planted tie gets one answer
    whether every stage is dense, every stage a dict, or a dict with no
    incumbent floor, and it scores the oracle's optimum."""

    @staticmethod
    def answer(p: AssignmentProblem) -> tuple[str, dict[int, int]]:
        answers = lattice_modes(p)
        assert answers["dense"] == answers["sparse"] == answers["no-floor"]
        path, assignment = answers["dense"]
        assert_feasible(p, assignment)
        assert objective(p, assignment) == pytest.approx(
            solve_exact(p).objective, abs=1e-9)
        return path, assignment

    def test_identical_jobs_first_job_wins(self, monkeypatch):
        """Two identical rows compete for the one 2-GPU slot: both end in
        one final cell, and the backtrack gives job 1 its first option,
        no allocation, so job 0 takes the slot.  HiGHS is not asked."""
        p = problem([[5.0, 3.0], [5.0, 3.0]], [2, 2], ["A", "B"],
                    {"A": 2, "B": 0})
        assert self.answer(p) == ("dp", {0: 0})
        calls = TestLattice.spy_highs(monkeypatch)
        assert solve_assignment(p, "milp").assignment == {0: 0}
        assert not calls

    def test_tie_in_another_final_cell_takes_the_lowest_key(self):
        """Job 0 on A with job 1 on B ends in cell (A=1, B=1); job 0 on B
        with job 1 on two A GPUs in (A=2, B=1).  Both score 6, and the
        first has the lower key.  (Each job's first best option, A, does
        not fit, so the DP decides.)"""
        p = problem([[5.0, NAN, 5.0], [NAN, 1.0, 1.0]], [1, 2, 1],
                    ["A", "A", "B"], {"A": 2, "B": 1})
        assert self.answer(p) == ("dp", {0: 0, 1: 2})

    def test_same_shift_takes_the_first_column(self):
        """Job 0's two columns use one A GPU each and score alike, and
        job 1 wants the same GPU: the DP gives job 0 its first column."""
        p = problem([[3.0, 3.0], [2.0, NAN]], [1, 1], ["A", "A"], {"A": 1})
        assert self.answer(p) == ("dp", {0: 0})

    def test_argmax_takes_the_first_best_option(self):
        """Capacity never binds: job 0 takes its first best column, and
        job 1's option worth 0 loses to no allocation."""
        p = problem([[2.0, 2.0], [0.0, NAN]], [1, 1], ["A", "A"], {"A": 4})
        assert self.answer(p) == ("argmax", {0: 0})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), coarse=st.booleans())
    def test_planted_exact_ties(self, data, coarse):
        """Options planted equal to another (same job or another job's
        option on the same config), or every utility rounded up to 1, 2
        or 3 (``coarse``), with forced pairs that may not fit: one answer
        in every mode, or a RuntimeError in every mode exactly when the
        forced pairs exceed capacity."""
        p = data.draw(lattice_instances())
        util = plant_near_ties(data, p, exact=True)
        if coarse:
            util = np.ceil(util / 4.0)
        p = problem(util, p.config_gpus, p.config_types, p.capacities,
                    p.forced)
        if forced_fits(p):
            self.answer(p)
        else:
            assert set(lattice_modes(p).values()) == {"raised"}


class TestCapturedRounds:
    """The argmax check, the DP and greedy against HiGHS on real rounds:
    every 8th instance of seed-1 sia-helios64 and sia-scale1024 passes,
    which bind capacity and hold near-tied options."""

    #: (argmax, dp, declined) per fixture, as ``baseline.json`` pins them.
    PATHS = {"milp_helios64.json": (7, 59, 0),
             "milp_scale1024.json": (28, 0, 0)}

    def test_answers_match_highs(self, monkeypatch):
        """Every captured round fits the lattice, and its answer is
        feasible and at least HiGHS's objective, which at gap 0 trails it
        by at most HiGHS's tolerance."""
        fixture = perf_bench(monkeypatch, "milp_fixture")
        assert {path.name for path in fixture.FIXTURES.values()} \
            == set(self.PATHS)
        for path in fixture.FIXTURES.values():
            problems = fixture.load(path)
            answers = [ilp._solve_lattice(p) for p in problems]
            paths = [answer[0] if answer else None for answer in answers]
            assert (paths.count("argmax"), paths.count("dp"),
                    paths.count(None)) == self.PATHS[path.name]
            for p, (_, assignment) in zip(problems, answers):
                assert_feasible(p, assignment)
                highs = ilp._solve_highs_milp(p).objective
                value = objective(p, assignment)
                assert highs - 1e-12 <= value <= highs + 2 * ilp._MIP_TOL \
                    * max(1.0, abs(highs))

    def test_greedy_within_three_percent_of_highs(self, monkeypatch):
        """The fallback rung on real rounds: greedy reaches at least 0.97
        of HiGHS's objective on every captured instance."""
        fixture = perf_bench(monkeypatch, "milp_fixture")
        for path in fixture.FIXTURES.values():
            for p in fixture.load(path):
                greedy = ilp.solve_assignment(p, "greedy").objective
                assert greedy >= 0.97 * ilp._solve_highs_milp(p).objective


class TestTracedPath:
    """The ``ilp_solve`` span names the ``milp`` path that answered."""

    @pytest.mark.parametrize("kind,rel,path", [
        ("slack", 1e-5, "argmax"), ("binding", 1e-5, "dp"),
        ("binding", 0.0, "highs")])
    def test_span_records_each_path(self, monkeypatch, kind, rel, path):
        if path == "highs":  # a lattice over the DP's work cap
            monkeypatch.setattr(ilp, "_DP_MAX_WORK", 0)
        tracer = Tracer()
        p = TestLattice.near_tie(kind, rel)
        solution = solve_assignment(p, "milp", tracer=tracer)
        assert solution.path == path
        span, = tracer.spans
        assert span.attrs["path"] == path
        assert span.attrs["expanded"] == solution.expanded
        assert (solution.expanded > 0) == (path == "dp")
        tracer = Tracer()
        assert solve_assignment(p, "greedy", tracer=tracer).path == ""
        assert "path" not in tracer.spans[0].attrs
        assert "expanded" not in tracer.spans[0].attrs

    def test_traced_round_records_path(self, hetero_cluster):
        """A traced Sia run on the 64-GPU testbed: every round's solve
        span carries the path."""
        jobs = [make_job(f"j{i}", "resnet18", 60.0 * i, work_scale=0.2)
                for i in range(4)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs,
                          tracer=Tracer(), max_hours=3.0)
        spans = [s for s in result.spans if s.name == "ilp_solve"]
        assert spans
        assert {s.attrs["path"] for s in spans} <= {"argmax", "dp", "highs"}
