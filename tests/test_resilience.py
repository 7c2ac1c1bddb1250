"""Tests for the resilient policy layer: solver fallback ladder, circuit
breaker, carry-forward plans, the simulator's carry-forward guard, and the
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
from repro.core.ilp import AssignmentProblem
from repro.core.policy import SiaPolicyParams
from repro.core.resilience import (ResilienceConfig, ResilientSolver,
                                   SolverExhaustedError, carry_forward_plan)
from repro.core.types import Allocation
from repro.jobs.job import make_job
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.schedulers.base import RoundPlan, Scheduler
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
    def test_milp_failure_falls_back_to_lp_round(self, monkeypatch):
        def boom(problem, time_limit=None):
            raise RuntimeError("injected MILP failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        solver = ResilientSolver()
        solution, backend, degraded = solver.solve(problem())
        assert backend == "lp_round"
        assert degraded
        # The fallback result still respects capacities (validated too).
        used = solution.gpus_used(problem())
        assert all(n <= problem().capacities[t] for t, n in used.items())

    def test_milp_and_lp_round_failure_falls_back_to_greedy(
            self, monkeypatch):
        def boom(problem, time_limit=None, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        solver = ResilientSolver()
        solution, backend, degraded = solver.solve(problem())
        assert backend == "greedy"
        assert degraded
        assert solution.assignment

    def test_breaker_opens_then_closes(self, monkeypatch):
        attempts = {"n": 0}

        def boom(problem, time_limit=None):
            attempts["n"] += 1
            raise RuntimeError("injected MILP failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=2,
                                                  breaker_cooldown_rounds=3,
                                                  retry_primary=False))
        p = problem()
        solver.solve(p)            # failure 1
        solver.solve(p)            # failure 2 -> breaker trips
        assert attempts["n"] == 2
        assert solver.breaker_open
        for _ in range(3):         # cooldown: MILP skipped entirely
            _, backend, degraded = solver.solve(p)
            assert backend == "lp_round" and degraded
        assert attempts["n"] == 2
        assert not solver.breaker_open
        solver.solve(p)            # breaker closed: MILP retried
        assert attempts["n"] == 3
        assert solver.stats["breaker_trips"] == 1

    def test_budget_overrun_counts_toward_breaker(self, monkeypatch):
        real = ilp._solve_milp

        def slow(problem, time_limit=None):
            time.sleep(0.03)
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", slow)
        solver = ResilientSolver(ResilienceConfig(solve_budget_s=0.01,
                                                  breaker_threshold=2,
                                                  breaker_cooldown_rounds=2))
        p = problem()
        # Overruns still return the MILP answer, but flagged degraded ...
        _, backend, degraded = solver.solve(p)
        assert backend == "milp" and degraded
        solver.solve(p)  # second overrun trips the breaker
        assert solver.breaker_open
        _, backend, degraded = solver.solve(p)
        assert backend == "lp_round" and degraded

    def test_success_resets_failure_count(self, monkeypatch):
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] % 2 == 1:
                raise RuntimeError("injected")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=2))
        p = problem()
        for _ in range(6):  # alternate fail/succeed: breaker never trips
            solver.solve(p)
        assert solver.stats["breaker_trips"] == 0

    def test_exhausted_chain_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        solver = ResilientSolver()
        with pytest.raises(SolverExhaustedError):
            solver.solve(problem())

    def test_time_limit_reaches_scipy(self):
        # A budgeted solve of a feasible instance still succeeds outright.
        solution = ilp.solve_assignment(problem(), time_limit=10.0)
        assert solution.assignment


class TestSolverExhaustedChain:
    """The full degradation chain down to SolverExhaustedError, and the
    breaker-open-with-greedy-primary edge case."""

    def test_exhausted_records_stats_and_metrics(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        solver = ResilientSolver()
        solver.metrics = MetricsRegistry()
        with pytest.raises(SolverExhaustedError):
            solver.solve(problem())
        assert solver.stats["exhausted"] == 1
        assert solver.metrics.snapshot()["resilience.backend.exhausted"] == 1

    def test_exhausted_message_names_primary(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        with pytest.raises(SolverExhaustedError, match="primary='milp'"):
            ResilientSolver().solve(problem())

    def test_greedy_exception_still_counts_primary_failure(self, monkeypatch):
        """A round where every backend dies must advance the breaker, so a
        persistently broken solver eventually stops being retried."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=2,
                                                  breaker_cooldown_rounds=2))
        p = problem()
        with pytest.raises(SolverExhaustedError):
            solver.solve(p)
        with pytest.raises(SolverExhaustedError):
            solver.solve(p)
        assert solver.breaker_open
        assert solver.stats["breaker_trips"] == 1

    def test_breaker_open_with_greedy_primary_exhausts(self, monkeypatch):
        """Edge case: primary == 'greedy', lp_round broken, and the breaker
        open.  The open breaker skips the primary, and the ladder has
        nothing below greedy — the solver must raise (callers carry
        forward during the cooldown) rather than loop or return garbage."""
        calls = {"n": 0}

        def counting_greedy(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected greedy failure")

        def boom(*args, **kwargs):
            raise RuntimeError("injected lp_round failure")
        monkeypatch.setattr(ilp, "_solve_greedy", counting_greedy)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=1,
                                                  breaker_cooldown_rounds=2))
        p = problem()
        with pytest.raises(SolverExhaustedError):
            solver.solve(p, primary="greedy")  # failure trips the breaker
        assert solver.breaker_open
        calls["n"] = 0
        with pytest.raises(SolverExhaustedError):
            solver.solve(p, primary="greedy")
        # Cooldown round: greedy is never attempted — straight to raise.
        assert calls["n"] == 0
        assert solver.stats["exhausted"] == 2

    def test_breaker_open_greedy_primary_recovers_after_cooldown(
            self, monkeypatch):
        real = ilp._solve_greedy
        calls = {"n": 0}

        def flaky_greedy(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real(*args, **kwargs)
        def boom(*args, **kwargs):
            raise RuntimeError("injected lp_round failure")
        monkeypatch.setattr(ilp, "_solve_greedy", flaky_greedy)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=1,
                                                  breaker_cooldown_rounds=1))
        p = problem()
        with pytest.raises(SolverExhaustedError):
            solver.solve(p, primary="greedy")  # trips the breaker
        with pytest.raises(SolverExhaustedError):
            solver.solve(p, primary="greedy")  # cooldown round, skipped
        solution, backend, degraded = solver.solve(p, primary="greedy")
        assert backend == "greedy" and not degraded
        assert solution.assignment

    def test_exhausted_policy_is_rescued_by_scheduler_guard(
            self, monkeypatch, hetero_cluster):
        """End to end: every backend dead -> SiaPolicy raises
        SolverExhaustedError -> the simulator's guard carries forward."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        params = SiaPolicyParams(resilience=ResilienceConfig())
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
        """ResilientSolver counters are folded into the run's
        MetricsRegistry and surface in saved results."""
        from repro import io
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)
        params = SiaPolicyParams(
            resilience=ResilienceConfig(retry_primary=False))
        sched = SiaScheduler(params)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, sched, jobs, max_hours=100)
        counts = result.resilience_counts()
        assert counts.get("resilience.backend.milp", 0) > 0
        assert counts.get("resilience.backend.lp_round", 0) > 0
        # the same counters appear in the final per-round snapshot
        assert result.rounds[-1].metrics.get("resilience.backend.lp_round",
                                             0) > 0
        # ... and survive a save/load round trip
        path = tmp_path / "res.json"
        io.save_result(result, path)
        assert io.load_result(path).resilience_counts() == counts


class TestPrimaryRetry:
    """The relaxed-budget retry (gray-failure hardening): a transient
    primary failure gets one more chance before the chain degrades."""

    def test_retry_rescues_transient_failure(self, monkeypatch):
        real = ilp._solve_milp
        calls = {"n": 0}

        def once(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", once)
        solver = ResilientSolver()
        solution, backend, degraded = solver.solve(problem())
        assert backend == "milp" and degraded
        assert solution.assignment
        assert solver.retries == 1
        assert solver.attempt_outcomes == {"milp.error": 1, "milp.ok": 1}
        # The rescued round does not advance the breaker.
        assert solver._consecutive_failures == 0

    def test_retry_budget_is_relaxed_and_deterministic(self):
        cfg = ResilienceConfig(solve_budget_s=2.0, retry_budget_factor=2.0,
                               retry_jitter=0.25)
        solver_a = ResilientSolver(cfg)
        solver_b = ResilientSolver(cfg)
        # The jitter token is the retry ordinal: identical histories yield
        # identical relaxed budgets (checkpoint resumes replay them).
        from repro.core.health import deterministic_jitter
        for solver in (solver_a, solver_b):
            solver.retries += 1
        jitter = deterministic_jitter("solver-retry:1", cfg.retry_jitter)
        relaxed = cfg.solve_budget_s * cfg.retry_budget_factor * (1 + jitter)
        assert relaxed >= 4.0
        assert solver_a.retries == solver_b.retries

    def test_greedy_primary_never_retries(self, monkeypatch):
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected")

        def lp_boom(*args, **kwargs):
            raise RuntimeError("injected lp_round failure")
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        monkeypatch.setattr(ilp, "_solve_lp_round", lp_boom)
        solver = ResilientSolver()
        with pytest.raises(SolverExhaustedError):
            solver.solve(problem(), primary="greedy")
        assert calls["n"] == 1  # no second greedy attempt
        assert solver.retries == 0

    def test_one_breaker_failure_per_solve(self, monkeypatch):
        def boom(problem, time_limit=None):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        solver = ResilientSolver(ResilienceConfig(breaker_threshold=3))
        p = problem()
        solver.solve(p)  # error + retry error + lp_round rescue
        assert solver._consecutive_failures == 1
        assert solver.attempt_outcomes["milp.error"] == 2
        assert solver.attempt_outcomes["lp_round.ok"] == 1

    def test_attempt_outcomes_persist_through_io(self, monkeypatch,
                                                 hetero_cluster, tmp_path):
        """Satellite 2: per-attempt outcomes flow into the metrics registry
        and survive a save/load round trip."""
        from repro import io
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem, time_limit=None):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected")
            return real(problem, time_limit=time_limit)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)
        params = SiaPolicyParams(resilience=ResilienceConfig())
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, SiaScheduler(params), jobs,
                          max_hours=100)
        counts = result.resilience_counts()
        assert counts.get("resilience.attempt.milp.ok", 0) > 0
        assert counts.get("resilience.attempt.milp.error", 0) > 0
        assert counts.get("resilience.primary_retries", 0) > 0
        path = tmp_path / "res.json"
        io.save_result(result, path)
        assert io.load_result(path).resilience_counts() == counts


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

        params = SiaPolicyParams(
            resilience=ResilienceConfig(solve_budget_s=5.0,
                                        breaker_threshold=3,
                                        breaker_cooldown_rounds=5,
                                        retry_primary=False))
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
