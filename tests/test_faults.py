"""Tests for the pluggable fault-injection subsystem (repro.sim.faults)."""

import numpy as np
import pytest

from repro.cluster import presets
from repro.core.types import Allocation
from repro.jobs.job import make_job
from repro.schedulers import SiaScheduler
from repro.sim import (CheckpointRestoreFaultModel, JobCrashModel,
                       NodeCrashModel, Simulator, SimulatorConfig,
                       StragglerModel, simulate)
from repro.sim.engine import EPOCHS_PER_JOB, _JobRuntime
from repro.sim.faults import (FaultContext, FaultModel, GrayFailureModel,
                              PlacementFailure, PlacementFailureModel,
                              TelemetryCorruptionModel, slowest_node)
from repro.sim.telemetry import FaultEvent


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
        def timeline(result):
            return [(e.kind, e.time, e.target)
                    for rnd in result.rounds for e in rnd.fault_events]
        assert timeline(a) == timeline(b)

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


# -- block draws: the per-item loops they replaced, as references -------------

def episode_reference(model, ctx):
    """``NodeEpisodeModel.sample`` as one ``rng.random()`` per node."""
    model._until = {nid: t for nid, t in model._until.items() if t > ctx.now}
    prob = model._per_round_prob(model.rate, ctx.dt)
    if prob > 0:
        for node in ctx.cluster.nodes:
            if node.node_id in model._until:
                continue
            if model.rng.random() < prob:
                until = ctx.now + model.duration
                model._until[node.node_id] = until
                ctx.events.append(FaultEvent(
                    kind=model.kind, time=ctx.now,
                    target=f"node:{node.node_id}",
                    detail=model.detail(until)))
    for node_id, until in model._until.items():
        model.apply(ctx, node_id, until)


def crash_reference(model, ctx):
    """``JobCrashModel.sample`` as one ``rng.random()`` per running job."""
    prob = model._per_round_prob(model.rate, ctx.dt)
    if prob <= 0:
        return
    for job_id in sorted(ctx.running):
        if model.rng.random() < prob:
            ctx.crashed_jobs.add(job_id)
            ctx.events.append(FaultEvent(
                kind=model.kind, time=ctx.now, target=f"job:{job_id}",
                detail="rolled back to epoch checkpoint"))


def restore_reference(model, restoring, now):
    """``sample_restore_failures`` as one ``rng.random()`` per job."""
    if model.failure_prob <= 0:
        return []
    return [FaultEvent(kind=model.kind, time=now, target=f"job:{job_id}",
                       detail="restore failed; paying restart delay again")
            for job_id in restoring
            if model.rng.random() < model.failure_prob]


def placement_reference(model, attempts, now):
    """``sample_placement_failures`` as one ``rng.random()`` per node."""
    if model.failure_prob <= 0:
        return []
    failures = []
    for job_id, allocation in attempts:
        failed_node = None
        for node_id in sorted(set(allocation.node_ids)):
            if model.rng.random() < model.failure_prob \
                    and failed_node is None:
                failed_node = node_id
        if failed_node is not None:
            failures.append(PlacementFailure(job_id, failed_node))
    return failures


def rng_state(model):
    return model.rng.bit_generator.state


def running_sets(cluster, rounds):
    """Per round, a job id -> allocation map of 0 to 5 jobs, each on up to
    three nodes of one type, sized by a fixed generator."""
    draw = np.random.default_rng(3)
    nodes = cluster.nodes
    out = []
    for _ in range(rounds):
        running = {}
        for k in range(int(draw.integers(0, 6))):
            gpu_type = nodes[int(draw.integers(len(nodes)))].gpu_type
            of_type = [n for n in nodes if n.gpu_type == gpu_type]
            picked = draw.choice(len(of_type),
                                 size=min(len(of_type),
                                          int(draw.integers(1, 4))),
                                 replace=False)
            running[f"j{k}"] = Allocation.build(
                gpu_type, {of_type[int(i)].node_id: 1 for i in picked})
        out.append(running)
    return out


class TestBlockDraws:
    """Each model draws a round's trials as one ``rng.random(n)`` block.
    It must give the events of one ``rng.random()`` per item and leave the
    generator in the same state, so seeded runs do not move."""

    ROUNDS = 40

    def ctx(self, cluster, now, running=None):
        running = running or {}
        return FaultContext(now=now, dt=60.0, cluster=cluster,
                            running=running,
                            restoring=frozenset(sorted(running)[:2]))

    @pytest.mark.parametrize("make", [
        lambda rate: NodeCrashModel(rate=rate, seed=7),
        lambda rate: StragglerModel(rate=rate, duration=600.0, seed=7),
        lambda rate: GrayFailureModel(rate=rate, duration=600.0, seed=7)])
    @pytest.mark.parametrize("rate", [0.0, 2.0, 120.0])
    def test_node_episodes(self, hetero_cluster, make, rate):
        block, loop = make(rate), make(rate)
        saw_full = False
        for r in range(self.ROUNDS):
            now = 60.0 * r
            got, want = self.ctx(hetero_cluster, now), \
                self.ctx(hetero_cluster, now)
            saw_full |= len(block._until) == len(hetero_cluster.nodes)
            block.sample(got)
            episode_reference(loop, want)
            assert got == want
            assert block._until == loop._until
            assert rng_state(block) == rng_state(loop)
        if rate == 120.0:
            # Every node already in an episode: a round with no draws.
            assert saw_full
        if rate == 0.0:
            assert rng_state(block) == rng_state(make(rate))

    @pytest.mark.parametrize("rate", [0.0, 6.0, 50.0])
    def test_job_crashes(self, hetero_cluster, rate):
        block, loop = (JobCrashModel(rate=rate, seed=5) for _ in range(2))
        runs = running_sets(hetero_cluster, self.ROUNDS)
        assert any(not running for running in runs)
        for r, running in enumerate(runs):
            got = self.ctx(hetero_cluster, 60.0 * r, running)
            want = self.ctx(hetero_cluster, 60.0 * r, running)
            block.sample(got)
            crash_reference(loop, want)
            assert got == want
            assert rng_state(block) == rng_state(loop)

    @pytest.mark.parametrize("prob", [0.0, 0.3, 0.9])
    def test_restore_failures(self, hetero_cluster, prob):
        block, loop = (CheckpointRestoreFaultModel(failure_prob=prob, seed=9)
                       for _ in range(2))
        for r, running in enumerate(running_sets(hetero_cluster,
                                                 self.ROUNDS)):
            restoring = sorted(running)
            assert block.sample_restore_failures(restoring, 60.0 * r) == \
                restore_reference(loop, restoring, 60.0 * r)
            assert rng_state(block) == rng_state(loop)

    @pytest.mark.parametrize("prob", [0.0, 0.3, 0.9])
    def test_placement_failures(self, hetero_cluster, prob):
        block, loop = (PlacementFailureModel(failure_prob=prob, seed=13)
                       for _ in range(2))
        for r, running in enumerate(running_sets(hetero_cluster,
                                                 self.ROUNDS)):
            attempts = sorted(running.items())
            assert block.sample_placement_failures(attempts, 60.0 * r) == \
                placement_reference(loop, attempts, 60.0 * r)
            assert rng_state(block) == rng_state(loop)


class TestForgetJob:
    def run(self, cluster):
        model = TelemetryCorruptionModel(rate=0.5)
        result = simulate(cluster, SiaScheduler(), jobs(n=4), seed=2,
                          max_hours=100, fault_models=[model])
        return model, result

    def test_telemetry_model_drops_a_finished_job(self, hetero_cluster,
                                                  monkeypatch):
        """A finished job's last report leaves the telemetry model, so
        checkpoints stop carrying it.  A finished job never reports again,
        so the run is the one that keeps every report."""
        model, result = self.run(hetero_cluster)
        assert all(job.completed for job in result.jobs)
        assert result.fault_counts().get("telemetry", 0) > 0
        assert model._last == {}
        monkeypatch.setattr(TelemetryCorruptionModel, "forget_job",
                            FaultModel.forget_job)
        kept, baseline = self.run(hetero_cluster)
        assert len(kept._last) == len(result.jobs)
        assert [r.fault_events for r in result.rounds] == \
            [r.fault_events for r in baseline.rounds]
        assert [(j.finish_time, j.num_restarts) for j in result.jobs] == \
            [(j.finish_time, j.num_restarts) for j in baseline.jobs]
