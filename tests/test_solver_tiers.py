"""Solver tiers: every backend honours forced pairs and capacity,
``tiered`` as ``milp`` at every size, deterministic fallbacks, telemetry
round trips with greedy as the primary, and the replay fork path."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import io
from repro.analysis.replay import build_run_spec, replay, simulator_from_spec
from repro.cli import build_parser
from repro.core import ilp
from repro.core.ilp import AssignmentProblem, solve_assignment
from repro.core.policy import SiaPolicyParams
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.audit import allocation_persistence
from repro.obs.tracer import Tracer
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers import SiaScheduler
from repro.schedulers.base import JobView
from repro.sim import simulate
from repro.sim.chaos import diff_results
from repro.workloads.generators import trace_by_name

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


def view_for(job, cluster, *, current=None, age=0.0) -> JobView:
    estimator = JobPerfEstimator(job.model_name, job.constraints(),
                                 cluster.gpu_types, ProfilingMode.BOOTSTRAP)
    estimator.profile_initial()
    return JobView(job=job, estimator=estimator, current_config=current,
                   age=age, num_restarts=0, progress=0.0)


class TestQualityHarness:
    """Every backend's answer is feasible; ``milp`` and ``tiered`` agree
    on a policy-shaped round."""

    def test_policy_shaped_round_matches_milp(self, hetero_cluster):
        """A real policy round (fresh jobs on the heterogeneous preset):
        ``milp`` and ``tiered`` land on the same objective."""
        jobs = [make_job(f"j{i}", name, 0.0) for i, name in
                enumerate(["bert", "deepspeech2", "resnet18", "resnet50"])]
        reference = None
        for backend in ("milp", "tiered"):
            policy = SiaScheduler(SiaPolicyParams(solver=backend))
            views = [view_for(job, hetero_cluster) for job in jobs]
            decision = policy.decide(views, hetero_cluster, {}, 0.0)
            if reference is None:
                reference = decision.objective
            assert decision.objective == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("backend", ["milp", "tiered", "greedy"])
    def test_forced_and_capacity_respected(self, backend):
        problem = random_problem(3)
        row = int(np.flatnonzero(~np.isnan(problem.utilities).all(axis=1))[0])
        col = int(np.nanargmax(problem.utilities[row]))
        problem.forced = {row: col}
        solution = solve_assignment(problem, backend=backend)
        assert solution.assignment[row] == col
        used = solution.gpus_used(problem)
        assert all(used[t] <= problem.capacities[t] for t in used)


class TestTieredIsMilp:
    def test_tiered_matches_milp_above_4096_pairs(self):
        """``tiered`` is ``milp`` at every size.  This instance has 4,920
        feasible pairs, above the 4,096 where ``tiered`` once switched to
        LP rounding."""
        problem = random_problem(0, n_jobs=410, density=1.0, tight=False)
        assert np.count_nonzero(~np.isnan(problem.utilities)) > 4096
        milp = solve_assignment(problem, backend="milp")
        tracer = Tracer()
        tiered = solve_assignment(problem, backend="tiered", tracer=tracer)
        assert tiered.backend == milp.backend == "milp"
        assert tiered.assignment == milp.assignment
        assert tiered.objective == milp.objective
        assert tiered.path == milp.path != ""
        span = [s for s in tracer.spans if s.name == "ilp_solve"][-1]
        assert span.attrs["path"] == milp.path
        assert "resolved" not in span.attrs


class TestGreedyDeterminism:
    """Ties break by job id / config id, never dict order."""

    def test_job_id_tie_break(self):
        """Over capacity, the job that loses the least per GPU freed gives
        up first; on a tie the lowest job id does, so the last one keeps
        the GPU."""
        utilities = np.array([[1.0], [1.0], [1.0]])
        problem = AssignmentProblem(utilities, [1], ["t4"], {"t4": 1})
        solution = solve_assignment(problem, backend="greedy")
        assert solution.assignment == {2: 0}

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
    """Bit-identical telemetry/ledger round trips of a resilient run with
    greedy, the ablation backend, as the solver."""

    def _run(self, cluster):
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                for i in range(3)]
        params = SiaPolicyParams(solver="greedy")
        return simulate(cluster, SiaScheduler(params), jobs, seed=7,
                        max_hours=100, resilient=True)

    def test_greedy_primary_round_trips(self, hetero_cluster, tmp_path):
        result = self._run(hetero_cluster)
        assert result.backend_counts().get("greedy", 0) > 0
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.final_metrics == result.final_metrics
        assert loaded.backend_counts() == result.backend_counts()
        assert [r.backend for r in loaded.rounds] == \
            [r.backend for r in result.rounds]

    def test_identical_runs_are_bit_identical(self, hetero_cluster):
        first = self._run(hetero_cluster)
        second = self._run(hetero_cluster)
        assert diff_results(first, second) == []


class TestReplayFork:
    """A fork rebuilds Sia from its base run's spec, whose ``solver`` is
    one of the solver registry's names (``repro run --solver``)."""

    def test_registry_stays_in_sync(self):
        assert ilp.BACKENDS == ("milp", "tiered", "greedy")
        for backend in ilp.BACKENDS:
            args = build_parser().parse_args(["run", "--solver", backend])
            assert args.solver == backend
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--solver", "simplex"])

    @pytest.fixture(scope="class")
    def base_result(self):
        trace = trace_by_name("philly", seed=3, num_jobs=6,
                              work_scale_factor=0.05)
        spec = build_run_spec(scheduler="sia", cluster="heterogeneous",
                              jobs=trace.jobs, seed=3,
                              scheduler_options={"round_duration": 60.0,
                                                 "solver": "tiered"})
        result = simulator_from_spec(spec).run()
        result.run_spec = spec
        return result

    def test_tiered_fork_accepted(self, base_result):
        outcome = replay(base_result, 2)
        assert outcome.diff.identical, outcome.diff.mismatches[:5]
        assert len(outcome.fork.rounds) >= 2
        assert {r.backend for r in outcome.fork.rounds} <= {"milp", "carry"}

    def test_unknown_backend_rejected(self, base_result):
        spec = dict(base_result.run_spec)
        spec["scheduler_options"] = {**spec["scheduler_options"],
                                     "solver": "simplex"}
        with pytest.raises(ValueError, match="unknown solver"):
            replay(base_result, 2, spec=spec)


class TestAllocationPersistence:
    """Satellite: the allocation-churn metric from the audit data."""

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
