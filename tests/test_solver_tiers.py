"""Solver tiers: LP-rounding quality bounds, warm-start semantics,
tiered selection, deterministic fallbacks, telemetry round trips
with the new backends, and the replay fork path."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import io
from repro.analysis.replay import (ReplayOverrides, build_run_spec, replay,
                                   simulator_from_spec)
from repro.core import fork as forklib
from repro.core import ilp
from repro.core.ilp import AssignmentProblem, select_backend, solve_assignment
from repro.core.matrix import warm_start_pairs
from repro.core.policy import SiaPolicyParams
from repro.core.types import Allocation, Configuration, ProfilingMode
from repro.jobs.job import make_job
from repro.obs.audit import allocation_persistence
from repro.obs.tracer import Tracer
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers import SiaScheduler
from repro.schedulers.base import JobView
from repro.sim import simulate
from repro.sim.chaos import diff_results
from repro.workloads.generators import trace_by_name

#: documented worst-case optimality gap on adversarial dense random
#: instances with tight capacity (DESIGN.md "Solver tiers"); calibrated
#: with margin over 20 seeds (measured worst: 4.3%).  Policy-shaped
#: instances are near-integral and land at ~0%.
LP_ROUND_GAP = 0.07


def random_problem(seed: int, n_jobs: int = 24, density: float = 0.7,
                   tight: bool = True) -> AssignmentProblem:
    """Adversarial instance: dense random utilities, three GPU types, and
    (when ``tight``) far less capacity than demand."""
    rng = np.random.default_rng(seed)
    util = rng.uniform(0.1, 3.0, (n_jobs, 12))
    util[rng.random(util.shape) > density] = np.nan
    caps = {"t4": 16, "rtx": 12, "a100": 8} if tight \
        else {"t4": 400, "rtx": 400, "a100": 400}
    return AssignmentProblem(
        utilities=util,
        config_gpus=np.array([1, 2, 4, 8] * 3),
        config_types=["t4"] * 4 + ["rtx"] * 4 + ["a100"] * 4,
        capacities=caps,
    )


def gap(reference: float, value: float) -> float:
    return (reference - value) / abs(reference)


def view_for(job, cluster, *, current=None, age=0.0) -> JobView:
    estimator = JobPerfEstimator(job.model_name, job.constraints(),
                                 cluster.gpu_types, ProfilingMode.BOOTSTRAP)
    estimator.profile_initial()
    return JobView(job=job, estimator=estimator, current_config=current,
                   age=age, num_restarts=0, progress=0.0)


class TestQualityHarness:
    """lp_round within a bounded optimality gap of the MILP reference,
    exact where the LP relaxation is integral."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lp_round_gap_bounded(self, seed):
        problem = random_problem(seed)
        ref = solve_assignment(problem, backend="milp")
        fast = solve_assignment(problem, backend="lp_round")
        assert gap(ref.objective, fast.objective) <= LP_ROUND_GAP
        # The LP bound certifies from above: bound >= integral optimum.
        assert fast.lp_bound >= ref.objective - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_integral_lp_is_exact(self, seed):
        """Ample capacity makes the relaxation integral: rounding must
        reproduce the MILP optimum exactly, not approximately."""
        problem = random_problem(seed, tight=False)
        ref = solve_assignment(problem, backend="milp")
        fast = solve_assignment(problem, backend="lp_round")
        assert fast.objective == pytest.approx(ref.objective, abs=1e-7)

    def test_policy_shaped_round_matches_milp(self, hetero_cluster):
        """A real policy round (fresh jobs on the heterogeneous preset) is
        integral in practice: every backend lands on the same objective."""
        jobs = [make_job(f"j{i}", name, 0.0) for i, name in
                enumerate(["bert", "deepspeech2", "resnet18", "resnet50"])]
        reference = None
        for backend in ("milp", "lp_round", "tiered"):
            policy = SiaScheduler(SiaPolicyParams(solver=backend))
            views = [view_for(job, hetero_cluster) for job in jobs]
            decision = policy.decide(views, hetero_cluster, {}, 0.0)
            if reference is None:
                reference = decision.objective
            assert decision.objective == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("backend", ["milp", "lp_round", "tiered",
                                         "greedy"])
    def test_forced_and_capacity_respected(self, backend):
        problem = random_problem(3)
        row = int(np.flatnonzero(~np.isnan(problem.utilities).all(axis=1))[0])
        col = int(np.nanargmax(problem.utilities[row]))
        problem.forced = {row: col}
        solution = solve_assignment(problem, backend=backend)
        assert solution.assignment[row] == col
        used = solution.gpus_used(problem)
        assert all(used[t] <= problem.capacities[t] for t in used)


class TestWarmStartAndReuse:
    """The warm start: last round's pairs win ``lp_round``'s ties."""

    def test_stale_warm_entries_dropped(self):
        problem = random_problem(0)
        ref = solve_assignment(problem, backend="milp")
        # Invalidate one job's entire row: its warm pair must be dropped
        # before lp_round's tie-break sees it.
        victim = next(iter(sorted(ref.assignment)))
        utilities = problem.utilities.copy()
        utilities[victim, :] = np.nan
        smaller = AssignmentProblem(utilities, problem.config_gpus,
                                    problem.config_types, problem.capacities)
        warm = dict(ref.assignment)
        assert victim not in ilp._clean_warm_start(smaller, warm)
        again = solve_assignment(smaller, backend="lp_round",
                                 warm_start=warm)
        assert again.warm_started
        assert victim not in again.assignment

    def test_forced_overrides_warm_choice(self):
        problem = random_problem(1)
        ref = solve_assignment(problem, backend="milp")
        row = sorted(ref.assignment)[0]
        feasible = np.flatnonzero(~np.isnan(problem.utilities[row]))
        other = int(next(c for c in feasible if c != ref.assignment[row]))
        problem.forced = {row: other}
        warm = dict(ref.assignment)
        assert ilp._clean_warm_start(problem, warm)[row] == other
        solution = solve_assignment(problem, backend="lp_round",
                                    warm_start=warm)
        assert solution.warm_started
        assert solution.assignment[row] == other

    def test_warm_started_flag_on_rounding_tiers(self):
        problem = random_problem(2)
        ref = solve_assignment(problem, backend="milp")
        solution = solve_assignment(problem, backend="lp_round",
                                    warm_start=dict(ref.assignment))
        assert solution.warm_started
        milp = solve_assignment(problem, backend="milp",
                                warm_start=dict(ref.assignment))
        assert not milp.warm_started  # scipy milp has no incumbent API

    def test_warm_start_pairs_translation(self):
        configs = [Configuration(1, 1, "t4"), Configuration(1, 4, "a100")]
        pos = {c: j for j, c in enumerate(configs)}
        previous = {
            "a": Allocation.build("t4", {0: 1}),
            "b": Allocation.build("a100", {1: 4}),
            "gone": Allocation.build("a100", {2: 2}),  # config not in set
        }
        warm = warm_start_pairs(["a", "b", "c"], previous, pos)
        assert warm == {0: 0, 1: 1}  # "c" has no previous, "gone" departed

    def test_policy_counts_warm_and_reuse(self, hetero_cluster):
        """End to end: every lp_round round after the first is warm
        started, and ``solver.warm_start_hits`` counts it in the round
        snapshots; the MILP, which cannot use a warm start, counts none."""
        def run(solver):
            jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                    for i in range(3)]
            return simulate(hetero_cluster,
                            SiaScheduler(SiaPolicyParams(solver=solver)),
                            jobs, max_hours=100)

        result = run("lp_round")
        hits = result.rounds[-1].metrics.get("solver.warm_start_hits", 0)
        assert hits > 0
        assert hits <= result.backend_counts()["lp_round"] - 1
        result = run("milp")
        assert "solver.warm_start_hits" not in result.rounds[-1].metrics


class TestTieredSelection:
    def test_select_backend_thresholds(self, monkeypatch):
        monkeypatch.setattr(ilp, "TIER_LP_VARS", 4)
        small = random_problem(0, n_jobs=2, density=0.2)
        assert small.n_feasible_pairs <= 4
        assert select_backend(small) == "milp"
        large = random_problem(0, n_jobs=3, density=1.0)  # 36 pairs > 4
        assert select_backend(large) == "lp_round"
        monkeypatch.setattr(ilp, "TIER_LP_VARS", large.n_feasible_pairs)
        assert select_backend(large) == "milp"  # the threshold is inclusive

    def test_tiered_resolves_and_annotates(self, monkeypatch):
        monkeypatch.setattr(ilp, "TIER_LP_VARS", 4)
        problem = random_problem(0, n_jobs=6, density=1.0)
        tracer = Tracer()
        solution = solve_assignment(problem, backend="tiered", tracer=tracer)
        assert solution.backend == "lp_round"
        spans = [s for s in tracer.spans if s.name == "ilp_solve"]
        assert spans[-1].attrs["resolved"] == "lp_round"

    def test_default_tier_is_milp_at_small_scale(self):
        problem = random_problem(0)
        assert select_backend(problem) == "milp"
        solution = solve_assignment(problem, backend="tiered")
        assert solution.backend == "milp"


class TestGreedyDeterminism:
    """Satellite: ties break by job id / config id, never dict order."""

    def test_job_id_tie_break(self):
        utilities = np.array([[1.0], [1.0], [1.0]])
        problem = AssignmentProblem(utilities, [1], ["t4"], {"t4": 1})
        solution = solve_assignment(problem, backend="greedy")
        assert solution.assignment == {0: 0}

    def test_config_id_tie_break(self):
        utilities = np.array([[1.0, 1.0]])
        problem = AssignmentProblem(utilities, [1, 1], ["t4", "t4"],
                                    {"t4": 1})
        solution = solve_assignment(problem, backend="greedy")
        assert solution.assignment == {0: 0}

    def test_repeatable_on_adversarial_ties(self):
        rng = np.random.default_rng(0)
        utilities = np.ones((8, 6)) * rng.choice([1.0, 2.0], size=(8, 1))
        problem = AssignmentProblem(utilities, [1, 2, 1, 2, 1, 2],
                                    ["t4", "t4", "rtx", "rtx", "a100",
                                     "a100"],
                                    {"t4": 2, "rtx": 2, "a100": 2})
        first = solve_assignment(problem, backend="greedy")
        second = solve_assignment(problem, backend="greedy")
        assert first.assignment == second.assignment


class TestTelemetryRoundTrips:
    """Bit-identical telemetry/ledger round trips of a budgeted run with
    the rounding tier as the primary."""

    def _run(self, cluster):
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                for i in range(3)]
        params = SiaPolicyParams(solver="lp_round", solve_budget_s=5.0)
        return simulate(cluster, SiaScheduler(params), jobs, seed=7,
                        max_hours=100, resilient=True)

    def test_lp_round_primary_round_trips(self, hetero_cluster, tmp_path):
        result = self._run(hetero_cluster)
        assert result.backend_counts().get("lp_round", 0) > 0
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.final_metrics == result.final_metrics
        assert loaded.backend_counts() == result.backend_counts()
        assert [r.metrics for r in loaded.rounds] == \
            [r.metrics for r in result.rounds]

    def test_identical_runs_are_bit_identical(self, hetero_cluster):
        first = self._run(hetero_cluster)
        second = self._run(hetero_cluster)
        assert diff_results(first, second) == []


class TestReplayFork:
    """Satellite: ``repro replay --solver-backend lp_round`` works through
    the counterfactual fork path."""

    def test_registry_stays_in_sync(self):
        assert forklib.SOLVER_BACKENDS is ilp.BACKENDS
        assert ilp.BACKENDS == ("milp", "lp_round", "tiered", "greedy")

    @pytest.fixture(scope="class")
    def base_result(self):
        trace = trace_by_name("philly", seed=3, num_jobs=6,
                              work_scale_factor=0.05)
        spec = build_run_spec(scheduler="sia", cluster="heterogeneous",
                              jobs=trace.jobs, seed=3,
                              scheduler_options={"round_duration": 60.0})
        result = simulator_from_spec(spec).run()
        result.run_spec = spec
        return result

    def test_lp_round_fork_diffs(self, base_result):
        outcome = replay(base_result, 2,
                         ReplayOverrides(solver_backend="lp_round"))
        assert {r.backend for r in outcome.fork.rounds[2:]} <= \
            {"lp_round", "carry"}
        assert {r.backend for r in outcome.fork.rounds[:2]} <= {"milp"}
        assert outcome.diff.overrides == {"solver_backend": "lp_round"}

    def test_tiered_fork_accepted(self, base_result):
        outcome = replay(base_result, 2,
                         ReplayOverrides(solver_backend="tiered"))
        # tiered resolves per round; at this scale that is the MILP tier
        assert len(outcome.fork.rounds) >= 2

    def test_unknown_backend_rejected(self, base_result):
        with pytest.raises(ValueError, match="unknown solver backend"):
            replay(base_result, 2,
                   ReplayOverrides(solver_backend="simplex"))


class TestAllocationPersistence:
    """Satellite: the warm-start-justifying metric from the audit data."""

    def _round(self, allocations):
        return SimpleNamespace(allocations=allocations)

    def test_fraction_over_round_pairs(self):
        rounds = [
            self._round({"a": ("t4", 1), "b": ("a100", 4)}),
            self._round({"a": ("t4", 1), "b": ("a100", 8)}),  # b scaled
            self._round({"a": ("t4", 1)}),                    # b finished
        ]
        # pairs: round0->1: a kept, b changed; round1->2: a kept, b gone.
        assert allocation_persistence(rounds) == pytest.approx(2 / 4)

    def test_json_lists_compare_equal(self):
        rounds = [self._round({"a": ["t4", 1]}),
                  self._round({"a": ("t4", 1)})]
        assert allocation_persistence(rounds) == 1.0

    def test_none_when_no_pairs(self):
        assert allocation_persistence([]) is None
        assert allocation_persistence([self._round({})] * 3) is None

    def test_simulated_run_reports_persistence(self, hetero_cluster):
        from repro.analysis.report import decision_digest_section
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                for i in range(3)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs,
                          max_hours=100)
        value = allocation_persistence(result.rounds)
        assert value is not None and 0.0 <= value <= 1.0
        digest = decision_digest_section(result)
        assert "Allocation persistence" in digest
