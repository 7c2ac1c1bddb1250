"""Tests for the resilient policy layer: the solver fallback ladder,
carry-forward plans, the simulator's carry-forward guard, and the
end-to-end chaos scenario."""

import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeGroup
from repro.core import ilp
from repro.core.ilp import (AssignmentProblem, SolverExhaustedError,
                            solve_with_fallback)
from repro.core.policy import SiaPolicyParams
from repro.core.types import Allocation
from repro.jobs.job import make_job
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.schedulers.base import RoundPlan, Scheduler, carry_forward_plan
from repro.sim import (JobCrashModel, NodeCrashModel, StragglerModel,
                       simulate)


def problem(n_jobs=3):
    """A small feasible instance: per-job utilities over 2 configs."""
    utilities = np.array([[1.0 + i, 2.0 + i] for i in range(n_jobs)])
    return AssignmentProblem(
        utilities=utilities,
        config_gpus=[1, 2],
        config_types=["t4", "t4"],
        capacities={"t4": 2 * n_jobs},
    )


class TestResilientSolver:
    """The fallback ladder, :func:`repro.core.ilp.solve_with_fallback`:
    the one solve path of the Sia policy."""

    @pytest.mark.parametrize("primary", ["milp", "tiered", "lp_round",
                                         "greedy"])
    @pytest.mark.parametrize("broken", [(), ("milp",), ("lp_round",),
                                        ("milp", "lp_round"),
                                        ("milp", "greedy"),
                                        ("milp", "lp_round", "greedy")])
    def test_ladder_serves_first_working_rung(self, monkeypatch, primary,
                                              broken):
        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")
        for backend in broken:
            monkeypatch.setattr(ilp, f"_solve_{backend}", boom)
        # ``tiered`` resolves to milp on this small instance.
        first = "milp" if primary == "tiered" else primary
        rungs = [first] + [b for b in ilp.FALLBACKS if b != primary]
        working = [b for b in rungs if b not in broken]
        if not working:
            with pytest.raises(SolverExhaustedError):
                solve_with_fallback(problem(), primary)
            return
        solution, degraded = solve_with_fallback(problem(), primary)
        assert solution.backend == working[0]
        assert degraded == (working[0] != first)
        assert solution.assignment

    def test_milp_failure_falls_back_to_lp_round(self, monkeypatch):
        def boom(problem, time_limit=None):
            raise RuntimeError("injected MILP failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        tracer = Tracer()
        solution, degraded = solve_with_fallback(problem(), tracer=tracer)
        assert solution.backend == "lp_round"
        assert degraded
        assert [(name, attrs) for name, _, attrs in tracer.events] == [
            ("rung_failed", {"backend": "milp", "error": "RuntimeError"})]
        # The fallback result still respects capacities (validated too).
        used = solution.gpus_used(problem())
        assert all(n <= problem().capacities[t] for t, n in used.items())

    def test_milp_and_lp_round_failure_falls_back_to_greedy(
            self, monkeypatch):
        def boom(problem, time_limit=None, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        solution, degraded = solve_with_fallback(problem())
        assert solution.backend == "greedy"
        assert degraded
        assert solution.assignment

    def test_timed_out_tiered_round_records_backend_that_ran(
            self, monkeypatch, hetero_cluster):
        """A budget overrun keeps the primary's answer, flagged degraded,
        and the round records the concrete backend, never ``tiered``."""
        real = ilp._solve_milp

        def slow(problem, time_limit=None):
            time.sleep(0.03)
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", slow)
        solution, degraded = solve_with_fallback(problem(), "tiered",
                                                 budget=0.01)
        assert solution.backend == "milp" and degraded

        params = SiaPolicyParams(solver="tiered", solve_budget_s=0.01)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, SiaScheduler(params), jobs,
                          max_hours=1)
        planned = [r for r in result.rounds if r.backend]
        assert planned
        assert all(r.backend == "milp" and r.degraded for r in planned)

    def test_unknown_primary_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            solve_with_fallback(problem(), "quantum")
        with pytest.raises(ValueError, match="solve_budget_s"):
            SiaPolicyParams(solve_budget_s=0.0)

    def test_exhausted_chain_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        with pytest.raises(SolverExhaustedError):
            solve_with_fallback(problem())

    def test_time_limit_reaches_scipy(self, monkeypatch):
        # A budgeted solve of a feasible instance still succeeds outright.
        solution = ilp.solve_assignment(problem(), time_limit=10.0)
        assert solution.assignment
        # Every budgeted rung hands its budget to HiGHS.
        options = _record_highs_options(monkeypatch)
        solve_with_fallback(problem(), budget=10.0)
        assert options == [{"time_limit": 10.0}]
        # ... except the last rung, which runs unbudgeted.
        def boom(*args, **kwargs):
            raise RuntimeError("injected greedy failure")
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        options.clear()
        solution, degraded = solve_with_fallback(problem(), "greedy",
                                                 budget=10.0)
        assert solution.backend == "lp_round" and degraded
        assert options == [None]

    def test_no_budget_passes_no_time_limit(self, monkeypatch,
                                            hetero_cluster):
        """Non-resilient runs (``solve_budget_s=None``) never cap HiGHS,
        so large-cluster MILP times stay uncapped."""
        options = _record_highs_options(monkeypatch)
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.3)
                for i in range(2)]
        simulate(hetero_cluster, SiaScheduler(SiaPolicyParams()), jobs,
                 max_hours=1)
        assert options and all(o is None for o in options)


def _record_highs_options(monkeypatch) -> list:
    """Wrap scipy's ``milp`` as the ILP module calls it; returns the list
    its ``options`` arguments are appended to."""
    seen = []
    real = ilp.milp

    def recording(*args, options=None, **kwargs):
        seen.append(options)
        return real(*args, options=options, **kwargs)
    monkeypatch.setattr(ilp, "milp", recording)
    return seen


class TestSolverExhaustedChain:
    """The full degradation chain down to SolverExhaustedError, and the
    simulator guard that carries the round forward."""

    def test_exhausted_message_names_primary(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        with pytest.raises(SolverExhaustedError, match="primary='milp'"):
            solve_with_fallback(problem())

    def test_exhausted_policy_is_rescued_by_scheduler_guard(
            self, monkeypatch, hetero_cluster):
        """End to end: every backend dead -> SiaPolicy raises
        SolverExhaustedError -> the simulator's guard carries forward."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        params = SiaPolicyParams(solve_budget_s=5.0)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        tracer = Tracer()
        result = simulate(hetero_cluster, SiaScheduler(params), jobs,
                          max_hours=1, resilient=True, tracer=tracer)
        assert result.final_metrics["caught_scheduler_failures"] > 0
        errors = {s.attrs["error"] for s in tracer.spans
                  if s.name == "carry_forward"}
        assert errors == {"SolverExhaustedError"}
        assert result.backend_counts().get("carry", 0) > 0

    def test_solver_counters_reach_round_snapshots(self, monkeypatch,
                                                   hetero_cluster,
                                                   tmp_path):
        """Which rung served each round reaches the round records, the
        engine's ``solver_fallbacks`` counter, and saved results."""
        from repro import io
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)
        params = SiaPolicyParams(solve_budget_s=5.0)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, SiaScheduler(params), jobs,
                          max_hours=100)
        backends = result.backend_counts()
        assert backends.get("milp", 0) > 0
        assert backends.get("lp_round", 0) > 0
        fallbacks = result.rounds[-1].metrics.get("solver_fallbacks", 0)
        assert fallbacks == result.degraded_rounds == backends["lp_round"]
        # ... and survive a save/load round trip
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.backend_counts() == backends
        assert loaded.final_metrics == result.final_metrics


class TestPrimaryRetry:
    """There is no retry: each rung runs at most once per round, and a
    failed primary drops straight to the next rung."""

    def test_greedy_primary_never_retries(self, monkeypatch):
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected")

        def lp_boom(*args, **kwargs):
            raise RuntimeError("injected lp_round failure")
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", lp_boom)
        with pytest.raises(SolverExhaustedError):
            solve_with_fallback(problem(), "greedy", budget=5.0)
        assert calls["n"] == 1  # no second greedy attempt


class TestCarryForward:
    def _random_previous(self, cluster, rng, n_jobs):
        """Valid allocations on the full cluster, random but packed."""
        occupancy = {}
        previous = {}
        for i in range(n_jobs):
            node = rng.choice(cluster.nodes)
            free = node.num_gpus - occupancy.get(node.node_id, 0)
            if free <= 0:
                continue
            take = rng.randint(1, free)
            occupancy[node.node_id] = occupancy.get(node.node_id, 0) + take
            previous[f"j{i}"] = Allocation.build(node.gpu_type,
                                                 {node.node_id: take})
        return previous

    def test_never_oversubscribes_shrunken_cluster(self):
        """Property-style: for many random (allocations, shrink) draws the
        carried plan always validates on the surviving nodes."""
        full = presets.heterogeneous()
        for seed in range(30):
            rng = random.Random(seed)
            previous = self._random_previous(full, rng, n_jobs=10)
            survivors = [n for n in full.nodes if rng.random() > 0.4]
            if not survivors:
                survivors = [full.nodes[0]]
            shrunk = Cluster(nodes=tuple(survivors))
            views = [SimpleNamespace(job_id=jid) for jid in previous]
            plan = carry_forward_plan(previous, shrunk, views)
            plan.validate(shrunk)  # must never raise
            assert plan.backend == "carry" and plan.degraded
            down = {n.node_id for n in full.nodes} - \
                {n.node_id for n in shrunk.nodes}
            for alloc in plan.allocations.values():
                assert not (set(alloc.node_ids) & down)

    def test_drops_departed_jobs(self, hetero_cluster):
        previous = {"gone": Allocation.build("t4", {0: 2}),
                    "kept": Allocation.build("t4", {1: 2})}
        views = [SimpleNamespace(job_id="kept")]
        plan = carry_forward_plan(previous, hetero_cluster, views)
        assert set(plan.allocations) == {"kept"}

    def test_gpu_type_mismatch_dropped(self):
        cluster = Cluster.from_groups([NodeGroup("t4", 1, 4)])
        previous = {"j0": Allocation.build("a100", {0: 2})}
        views = [SimpleNamespace(job_id="j0")]
        plan = carry_forward_plan(previous, cluster, views)
        assert plan.allocations == {}
        plan.validate(cluster)


class _FlakyScheduler(Scheduler):
    """Delegates to Sia, but blows up (or emits garbage) on schedule."""

    name = "flaky"

    def __init__(self, every=3, mode="raise"):
        self.inner = SiaScheduler()
        self.round_duration = self.inner.round_duration
        self.calls = 0
        self.every = every
        self.mode = mode

    def make_estimator(self, job, cluster, profiling_mode):
        return self.inner.make_estimator(job, cluster, profiling_mode)

    def decide(self, views, cluster, previous, now):
        self.calls += 1
        if self.calls % self.every == 0:
            if self.mode == "raise":
                raise RuntimeError("injected scheduler failure")
            # Garbage plan: allocate a node that does not exist.
            return RoundPlan(allocations={
                views[0].job_id: Allocation.build("t4", {10**6: 1})})
        return self.inner.decide(views, cluster, previous, now)


class TestEngineGuard:
    """``SimulatorConfig.resilient``: the one place a bad round is caught
    and replaced by the carry-forward plan."""

    def test_wraps_exceptions_into_carry(self, hetero_cluster):
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                for i in range(3)]
        result = simulate(hetero_cluster, _FlakyScheduler(every=3), jobs,
                          max_hours=100, resilient=True)
        assert all(j.completed for j in result.jobs)
        caught = result.final_metrics["caught_scheduler_failures"]
        assert caught > 0
        assert result.degraded_rounds >= caught
        assert result.backend_counts().get("carry", 0) == caught

    def test_invalid_plans_are_caught(self, hetero_cluster):
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster,
                          _FlakyScheduler(every=2, mode="garbage"), jobs,
                          max_hours=100, resilient=True)
        assert result.jobs[0].completed
        assert result.final_metrics["caught_scheduler_failures"] > 0

    def test_simulator_guard_requires_opt_in(self, hetero_cluster):
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        with pytest.raises(RuntimeError, match="injected"):
            simulate(hetero_cluster, _FlakyScheduler(every=2), jobs,
                     max_hours=100)
        with pytest.raises(ValueError, match="unknown node"):
            simulate(hetero_cluster,
                     _FlakyScheduler(every=2, mode="garbage"), jobs,
                     max_hours=100)
        result = simulate(hetero_cluster, _FlakyScheduler(every=2), jobs,
                          max_hours=100, resilient=True)
        assert result.jobs[0].completed
        assert result.degraded_rounds > 0


class TestChaos:
    def test_chaos_run_completes_with_degraded_telemetry(
            self, hetero_cluster, monkeypatch):
        """Acceptance: MILP failures + node crashes + stragglers in one run;
        every job finishes and degraded-round telemetry is nonzero."""
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("injected MILP failure")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)

        params = SiaPolicyParams(solve_budget_s=5.0)
        scheduler = SiaScheduler(params)
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.4)
                for i in range(4)]
        result = simulate(
            hetero_cluster, scheduler, jobs, seed=1, max_hours=200,
            resilient=True,
            fault_models=[NodeCrashModel(rate=2.0, seed=41),
                          StragglerModel(rate=20.0, slowdown=0.4, seed=42),
                          JobCrashModel(rate=5.0, seed=43)])
        assert all(j.completed for j in result.jobs)
        assert result.degraded_rounds > 0
        assert result.total_fault_events > 0
        backends = result.backend_counts()
        assert backends.get("lp_round", 0) > 0  # the fallback ladder engaged
        loaded_summary = result.fault_counts()
        assert loaded_summary  # structured fault telemetry survives

    def test_chaos_telemetry_round_trips(self, hetero_cluster, tmp_path,
                                         monkeypatch):
        from repro import io
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs, seed=2,
                          max_hours=100,
                          fault_models=[JobCrashModel(rate=60.0, seed=5)])
        assert result.total_fault_events > 0
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.fault_counts() == result.fault_counts()
        assert loaded.degraded_rounds == result.degraded_rounds
        assert loaded.backend_counts() == result.backend_counts()
