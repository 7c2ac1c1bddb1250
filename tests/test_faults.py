"""Tests for the pluggable fault-injection subsystem (repro.sim.faults)."""

import pytest

from repro.cluster import presets
from repro.jobs.job import make_job
from repro.schedulers import SiaScheduler
from repro.sim import (CheckpointRestoreFaultModel, JobCrashModel,
                       NodeCrashModel, Simulator, SimulatorConfig,
                       StragglerModel, simulate)
from repro.sim.engine import EPOCHS_PER_JOB, _JobRuntime
from repro.sim.faults import FaultContext, slowest_node


def jobs(n=3, scale=0.4):
    return [make_job(f"j{i}", "resnet18", 0.0, work_scale=scale)
            for i in range(n)]


class TestNodeCrashModelCompat:
    """The refactored NodeCrashModel must reproduce the legacy
    ``node_failure_rate`` engine behaviour exactly."""

    def test_explicit_model_matches_legacy_config(self, hetero_cluster):
        legacy = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          node_failure_rate=3.0, seed=2, max_hours=100)
        # The legacy path seeds its sampler with config.seed + 1.
        explicit = simulate(hetero_cluster, SiaScheduler(), jobs(),
                            seed=2, max_hours=100,
                            fault_models=[NodeCrashModel(rate=3.0, seed=3)])
        assert legacy.node_failures > 0  # the comparison must be non-trivial
        assert explicit.node_failures == legacy.node_failures
        assert [(j.finish_time, j.num_restarts) for j in legacy.jobs] == \
            [(j.finish_time, j.num_restarts) for j in explicit.jobs]

    def test_crash_events_recorded(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          seed=2, max_hours=100,
                          fault_models=[NodeCrashModel(rate=3.0, seed=3)])
        counts = result.fault_counts()
        assert counts.get("node_crash", 0) == result.node_failures > 0

    def test_total_failure_recovers_via_model(self, tiny_cluster):
        """Every node down at once: the degenerate-case revive keeps the
        cluster view non-empty through the model API too."""
        result = simulate(tiny_cluster, SiaScheduler(),
                          [make_job("j1", "resnet18", 0.0, work_scale=0.05)],
                          seed=3, max_hours=50,
                          fault_models=[NodeCrashModel(rate=20.0, seed=4)])
        assert result.node_failures > 0
        assert result.jobs[0].completed


class TestDeterminism:
    def test_same_seeds_same_run(self, hetero_cluster):
        def run():
            return simulate(
                hetero_cluster, SiaScheduler(), jobs(), seed=5, max_hours=100,
                fault_models=[StragglerModel(rate=10.0, slowdown=0.4, seed=11),
                              JobCrashModel(rate=3.0, seed=12),
                              CheckpointRestoreFaultModel(failure_prob=0.3,
                                                          seed=13)])
        a, b = run(), run()
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]
        assert a.fault_counts() == b.fault_counts()
        assert [(e.kind, e.time, e.target) for e in a.fault_timeline()] == \
            [(e.kind, e.time, e.target) for e in b.fault_timeline()]

    def test_unseeded_models_bound_from_sim_seed(self, hetero_cluster):
        def run(seed):
            return simulate(hetero_cluster, SiaScheduler(), jobs(),
                            seed=seed, max_hours=100,
                            fault_models=[JobCrashModel(rate=5.0)])
        a, b = run(7), run(7)
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]
        assert a.fault_counts() == b.fault_counts()

    def test_model_reuse_is_reset(self, hetero_cluster):
        """Passing the same model instance to two simulations must not let
        state leak between runs (the simulator re-binds the seed)."""
        model = StragglerModel(rate=10.0, slowdown=0.4, seed=11)
        a = simulate(hetero_cluster, SiaScheduler(), jobs(), max_hours=100,
                     fault_models=[model])
        b = simulate(hetero_cluster, SiaScheduler(), jobs(), max_hours=100,
                     fault_models=[model])
        assert a.fault_counts() == b.fault_counts()
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]


class TestStragglerModel:
    def test_stragglers_slow_jct_without_evictions(self, hetero_cluster):
        clean = simulate(hetero_cluster, SiaScheduler(), jobs(),
                         max_hours=100)
        slow = simulate(hetero_cluster, SiaScheduler(), jobs(),
                        max_hours=100,
                        fault_models=[StragglerModel(rate=60.0, slowdown=0.3,
                                                     duration=7200.0,
                                                     seed=8)])
        assert slow.fault_counts().get("straggler", 0) > 0
        assert sum(slow.jcts_hours()) > sum(clean.jcts_hours())
        # No evictions: nothing rolled back, no nodes lost.
        assert slow.node_failures == 0
        assert set(slow.fault_counts()) == {"straggler"}
        assert all(j.completed for j in slow.jobs)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StragglerModel(slowdown=0.0)
        with pytest.raises(ValueError):
            StragglerModel(slowdown=1.5)
        with pytest.raises(ValueError):
            StragglerModel(rate=-1.0)

    def test_job_speed_is_min_over_nodes(self):
        from repro.core.types import Allocation
        ctx = FaultContext(now=0.0, dt=60.0, cluster=presets.heterogeneous())
        ctx.slow_node(0, 0.5)
        ctx.slow_node(1, 0.8)
        alloc = Allocation.build("t4", {0: 2, 1: 2, 2: 2})
        assert slowest_node(ctx.node_speed, alloc) == 0.5
        ctx.slow_node(0, 0.9)  # overlapping slowdown keeps the worst factor
        assert slowest_node(ctx.node_speed, alloc) == 0.5


class TestJobCrashModel:
    def test_jobs_complete_despite_crashes(self, hetero_cluster):
        clean = simulate(hetero_cluster, SiaScheduler(), jobs(), max_hours=100)
        faulty = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          max_hours=100,
                          fault_models=[JobCrashModel(rate=20.0, seed=6)])
        assert faulty.fault_counts().get("job_crash", 0) > 0
        assert all(j.completed for j in faulty.jobs)
        # Crashes take no nodes down but do cost time and restarts.
        assert faulty.node_failures == 0
        assert sum(faulty.jcts_hours()) > sum(clean.jcts_hours())

    def test_rollback_bounded_to_one_epoch(self, hetero_cluster):
        sim = Simulator(hetero_cluster, SiaScheduler(), jobs(1),
                        SimulatorConfig())
        job = jobs(1)[0]
        epoch = job.target_samples / EPOCHS_PER_JOB
        for progress in (0.0, epoch * 2.5, epoch * 7.999, epoch * 29.01):
            rt = _JobRuntime(job=job, estimator=None, progress=progress)
            sim._rollback(rt)
            assert rt.progress <= progress
            assert progress - rt.progress < epoch  # at most one epoch lost
            # Lands on an epoch boundary (up to float rounding).
            assert rt.progress == pytest.approx(
                round(rt.progress / epoch) * epoch)


class TestCheckpointRestoreFaultModel:
    def test_failed_restores_cost_time_but_terminate(self, hetero_cluster):
        clean = simulate(hetero_cluster, SiaScheduler(), jobs(), max_hours=100)
        faulty = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          max_hours=100,
                          fault_models=[CheckpointRestoreFaultModel(
                              failure_prob=0.5, seed=21)])
        assert faulty.fault_counts().get("restore_failure", 0) > 0
        assert all(j.completed for j in faulty.jobs)
        assert sum(faulty.jcts_hours()) >= sum(clean.jcts_hours())

    def test_rejects_certain_failure(self):
        with pytest.raises(ValueError):
            CheckpointRestoreFaultModel(failure_prob=1.0)


class TestComposition:
    def test_models_compose_and_jobs_finish(self, hetero_cluster):
        result = simulate(
            hetero_cluster, SiaScheduler(), jobs(4), seed=1, max_hours=200,
            fault_models=[NodeCrashModel(rate=2.0, seed=31),
                          StragglerModel(rate=20.0, slowdown=0.4, seed=32),
                          JobCrashModel(rate=5.0, seed=33),
                          CheckpointRestoreFaultModel(failure_prob=0.3,
                                                      seed=34)])
        counts = result.fault_counts()
        assert counts  # something fired
        assert all(j.completed for j in result.jobs)
        assert result.total_fault_events == sum(counts.values())

    def test_unbound_model_raises_clearly(self):
        model = JobCrashModel(rate=1.0)
        with pytest.raises(RuntimeError, match="never seeded"):
            _ = model.rng
