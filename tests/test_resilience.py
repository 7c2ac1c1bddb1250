"""Tests for the resilient policy layer: failed solves, carry-forward
plans, the simulator's carry-forward guard, and the end-to-end chaos
scenario."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeGroup
from repro.core import ilp
from repro.core.ilp import AssignmentProblem
from repro.core.policy import SiaPolicyParams
from repro.core.types import Allocation, ProfilingMode
from repro.jobs.job import make_job
from repro.obs.tracer import Tracer
from repro.schedulers import FIFOScheduler, SiaScheduler
from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   carry_forward_plan)
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
    """A failed solve is not caught inside the policy: Sia calls
    :func:`repro.core.ilp.solve_assignment` once per round, and the
    simulator's ``resilient`` guard is the one place a bad round is
    caught."""

    def test_failed_solve_fails_a_clean_run(self, monkeypatch,
                                            hetero_cluster):
        """Without ``resilient``, a failed solve ends the run with its
        own error; no other backend answers the round."""
        def boom(problem):
            raise RuntimeError("injected MILP failure")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        with pytest.raises(RuntimeError, match="injected MILP failure"):
            simulate(hetero_cluster, SiaScheduler(), jobs, max_hours=1)

    def test_exhausted_chain_raises(self, monkeypatch):
        """With its backends broken, a solve raises the backend's own
        error, whichever backend is asked for: no other one answers."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        for backend in ilp.BACKENDS:
            with pytest.raises(RuntimeError, match="injected"):
                ilp.solve_assignment(problem(), backend)

    def test_non_optimal_highs_status_raises(self, monkeypatch):
        """A HiGHS status other than optimal (here 1, a reached limit)
        can hold a feasible incumbent far below the optimum: ``milp``
        refuses it and the solve raises."""
        monkeypatch.setattr(ilp, "_solve_lattice",
                            lambda problem, expanded=None: None)

        def limit_reached(*, c, **kwargs):
            x = np.zeros(len(c))
            x[0] = 1.0  # job 0 on its worse configuration, the rest idle
            return SimpleNamespace(status=1, x=x,
                                   message="Time limit reached.")
        monkeypatch.setattr(scipy.optimize, "milp", limit_reached)
        with pytest.raises(RuntimeError, match="MILP failed"):
            ilp.solve_assignment(problem())

    def test_unknown_primary_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ilp.solve_assignment(problem(), "quantum")

    def test_misspelled_solver_rejected(self):
        """A solver name outside ``ilp.BACKENDS`` fails at construction,
        not as a failed solve every round that a resilient run then
        carries forward."""
        with pytest.raises(ValueError, match="unknown solver 'tierd'"):
            SiaPolicyParams(solver="tierd")
        for backend in ilp.BACKENDS:
            assert SiaPolicyParams(solver=backend).solver == backend

    def test_no_budget_passes_no_time_limit(self, monkeypatch,
                                            hetero_cluster):
        """HiGHS runs without a time limit: every call passes
        :data:`ilp._MILP_OPTIONS` and nothing else, so large-cluster MILP
        times stay uncapped."""
        calls = _record_highs_calls(monkeypatch)
        jobs = [make_job(f"j{i}", "resnet18", 0.0, work_scale=0.3)
                for i in range(2)]
        simulate(hetero_cluster, SiaScheduler(SiaPolicyParams()), jobs,
                 max_hours=1)
        assert calls
        for integral, options in calls:
            assert integral
            assert options == ilp._MILP_OPTIONS


def _record_highs_calls(monkeypatch) -> list:
    """Wrap scipy's ``milp``, which the ILP module looks up in
    ``scipy.optimize`` at every HiGHS solve; returns the list
    each call's ``(integral, options)`` is appended to.  ``options`` is
    copied before scipy consumes it, and ``{}`` when none were passed.
    The ``milp`` backend's argmax check and lattice DP decline every
    instance, so every ``milp`` solve reaches HiGHS."""
    monkeypatch.setattr(ilp, "_solve_lattice",
                        lambda problem, expanded=None: None)
    seen = []
    real = scipy.optimize.milp

    def recording(*args, integrality=None, options=None, **kwargs):
        seen.append((bool(np.any(integrality)), dict(options or {})))
        return real(*args, integrality=integrality, options=options,
                    **kwargs)
    monkeypatch.setattr(scipy.optimize, "milp", recording)
    return seen


class TestSolverExhaustedChain:
    """A policy whose solve fails, end to end: the simulator's
    ``resilient`` guard carries the round forward, and the caught
    failures, the degraded rounds and the ``carry`` rounds are one
    count."""

    def test_exhausted_policy_is_rescued_by_scheduler_guard(
            self, monkeypatch, hetero_cluster):
        """Every backend dead -> SiaScheduler raises the solve's error ->
        the simulator's guard carries every round forward."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected")
        monkeypatch.setattr(ilp, "_solve_milp", boom)
        monkeypatch.setattr(ilp, "_solve_greedy", boom)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        tracer = Tracer()
        result = simulate(hetero_cluster, SiaScheduler(), jobs,
                          max_hours=1, resilient=True, tracer=tracer)
        assert result.final_metrics["caught_scheduler_failures"] > 0
        errors = {s.attrs["error"] for s in tracer.spans
                  if s.name == "carry_forward"}
        assert errors == {"RuntimeError"}
        assert result.backend_counts().get("carry", 0) > 0

    def test_solver_counters_reach_round_snapshots(self, monkeypatch,
                                                   hetero_cluster,
                                                   tmp_path):
        """Which backend served each round reaches the round records;
        the engine's ``caught_scheduler_failures`` counter equals the
        degraded and the ``carry`` rounds, and all survive a save/load."""
        from repro import io
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected")
            return real(problem)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.3)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs,
                          max_hours=100, resilient=True)
        backends = result.backend_counts()
        assert backends.get("milp", 0) > 0
        caught = result.final_metrics["caught_scheduler_failures"]
        assert caught > 0
        assert caught == result.degraded_rounds == backends["carry"]
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.backend_counts() == backends
        assert loaded.degraded_rounds == result.degraded_rounds
        assert loaded.final_metrics == result.final_metrics


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
            assert plan.backend == "carry"
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
        assert result.degraded_rounds == caught
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


class TestRecordEstimates:
    def test_estimator_failure_fails_decide(self, monkeypatch,
                                            hetero_cluster):
        """``record_estimates`` lets an estimator failure through: a
        ``best_plan`` that raises for an allocated job fails ``decide``,
        inside the engine's guarded ``plan`` phase, rather than leaving the
        job without a plan for ``advance`` to look up unguarded."""
        scheduler = FIFOScheduler()
        job = make_job("j0", "resnet18", 0.0, fixed_num_gpus=1)
        estimator = scheduler.make_estimator(job, hetero_cluster,
                                             ProfilingMode.BOOTSTRAP)
        view = JobView(job=job, estimator=estimator, current_config=None,
                       age=0.0, num_restarts=0, progress=0.0)

        def boom(*args, **kwargs):
            raise RuntimeError("injected estimator failure")
        monkeypatch.setattr(estimator, "best_plan", boom)
        with pytest.raises(RuntimeError, match="injected estimator"):
            scheduler.decide([view], hetero_cluster, {}, 0.0)


class TestChaos:
    def test_chaos_run_completes_with_degraded_telemetry(
            self, hetero_cluster, monkeypatch):
        """Acceptance: MILP failures + node crashes + stragglers in one run;
        every job finishes and degraded-round telemetry is nonzero."""
        real = ilp._solve_milp
        calls = {"n": 0}

        def flaky(problem):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("injected MILP failure")
            return real(problem)
        monkeypatch.setattr(ilp, "_solve_milp", flaky)

        scheduler = SiaScheduler()
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
        assert backends.get("carry", 0) > 0  # the engine's guard engaged
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
