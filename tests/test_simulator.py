"""Tests for the discrete-time simulator engine and executor."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import presets
from repro.core.types import Allocation, ProfilingMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.perf.goodput import BatchPlan
from repro.sim.engine import Simulator, SimulatorConfig, simulate
from repro.sim.executor import ExecutionModel
from repro.schedulers import SiaScheduler
from tests.oracle import execute_afresh, observe_afresh


def tiny_job(job_id="j1", model="resnet18", submit=0.0, scale=0.05, **kw):
    return make_job(job_id, model, submit, work_scale=scale, **kw)


class TestExecutionModel:
    @pytest.fixture
    def model(self) -> ExecutionModel:
        return ExecutionModel(seed=0)

    def test_execute_matches_ground_truth(self, model, hetero_cluster):
        job = tiny_job()
        node = hetero_cluster.nodes_of_type("rtx")[0]
        alloc = Allocation.build("rtx", {node.node_id: 2})
        plan = BatchPlan(local_bsz=128, accum_steps=1, total_batch_size=256,
                         throughput=0, efficiency=0, goodput=0)
        execution = model.execute(job, alloc, plan)
        assert execution is not None
        assert execution.goodput == pytest.approx(
            execution.throughput * (1500 + 128) / (1500 + 256))

    def test_oom_plan_rejected(self, model, hetero_cluster):
        job = tiny_job(model="bert")
        node = hetero_cluster.nodes_of_type("rtx")[0]
        alloc = Allocation.build("rtx", {node.node_id: 1})
        plan = BatchPlan(local_bsz=100_000, accum_steps=1,
                         total_batch_size=100_000, throughput=0,
                         efficiency=0, goodput=0)
        assert model.execute(job, alloc, plan) is None

    def test_hybrid_execution(self, model, hetero_cluster):
        job = make_job("g", "gpt-2.8b", 0.0, hybrid=HybridSpec(), max_gpus=64)
        nodes = hetero_cluster.nodes_of_type("a100")
        alloc = Allocation.build("a100", {nodes[0].node_id: 4})
        execution = model.execute(job, alloc, None)
        assert execution is not None and execution.goodput > 0

    def test_rate_noise_is_fixed_per_pair(self):
        noisy = ExecutionModel(seed=1, rate_noise=0.2)
        assert noisy._hardware_bias("j1", "t4") == \
            noisy._hardware_bias("j1", "t4")
        assert noisy._hardware_bias("j1", "t4") != \
            noisy._hardware_bias("j1", "a100")

    def test_observation_carries_shape(self, model, hetero_cluster):
        job = tiny_job()
        node = hetero_cluster.nodes_of_type("t4")[0]
        alloc = Allocation.build("t4", {node.node_id: 2})
        plan = BatchPlan(local_bsz=128, accum_steps=2, total_batch_size=512,
                         throughput=0, efficiency=0, goodput=0)
        execution = model.execute(job, alloc, plan)
        obs = model.observe(job, alloc, execution)
        assert obs.num_gpus == 2 and obs.accum_steps == 2
        assert obs.iter_time == pytest.approx(execution.iter_time)

    def test_noise_levels_validated(self):
        with pytest.raises(ValueError):
            ExecutionModel(rate_noise=-0.1)


def _allocations() -> list[Allocation]:
    """One- and multi-node allocations on every type of the paper's
    heterogeneous testbed."""
    cluster = presets.heterogeneous()
    allocations = []
    for gpu_type in cluster.gpu_types:
        first, second = cluster.nodes_of_type(gpu_type)[:2]
        allocations += [
            Allocation.build(gpu_type, {first.node_id: 1}),
            Allocation.build(gpu_type, {first.node_id: first.num_gpus}),
            Allocation.build(gpu_type, {first.node_id: first.num_gpus,
                                        second.node_id: second.num_gpus})]
    return allocations


MEMO_JOBS = [tiny_job("a"), tiny_job("b", model="bert"),
             make_job("g", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                      max_gpus=64)]
MEMO_ALLOCATIONS = _allocations()


class TestExecutionMemo:
    """``execute`` and ``observe`` answer from process-level memos; every
    answer equals the fresh computation of ``tests/oracle.py``, and the
    executor draws the same random numbers in the same order."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 3),
           rate_noise=st.sampled_from([0.0, 0.2]),
           obs_noise=st.sampled_from([0.0, 0.05]),
           calls=st.lists(st.tuples(
               st.integers(0, len(MEMO_JOBS) - 1),
               st.integers(0, len(MEMO_ALLOCATIONS) - 1),
               # 100,000 per GPU is over every type's memory cap.
               st.sampled_from([1, 32, 128, 100_000]),
               st.integers(1, 3),
               st.sampled_from([1.0, 0.5]),     # straggler speed
               st.sampled_from([1.0, 0.35])),   # gray speed, masked
               min_size=1, max_size=30))
    def test_memo_equals_the_fresh_computation(self, seed, rate_noise,
                                               obs_noise, calls):
        memo = ExecutionModel(seed, rate_noise, obs_noise)
        fresh = ExecutionModel(seed, rate_noise, obs_noise)
        for job, allocation, local, accum, straggler, gray in calls:
            job, allocation = MEMO_JOBS[job], MEMO_ALLOCATIONS[allocation]
            plan = None if job.is_hybrid else BatchPlan(
                local_bsz=local, accum_steps=accum,
                total_batch_size=local * accum * allocation.num_gpus,
                throughput=0, efficiency=0, goodput=0)
            got = memo.execute(job, allocation, plan, straggler * gray)
            want = execute_afresh(fresh, job, allocation, plan,
                                  straggler * gray)
            assert got == want
            if got is None:
                continue
            reports = (memo.observe(job, allocation, got),
                       observe_afresh(fresh, job, allocation, want))
            if gray < 1.0:  # the engine masks the slowdown from the report
                reports = tuple(replace(r, iter_time=r.iter_time * gray)
                                for r in reports)
            assert reports[0] == reports[1]
            assert type(reports[0].iter_time) is type(reports[1].iter_time)
        assert memo._rng.bit_generator.state == \
            fresh._rng.bit_generator.state

    def test_a_repeated_noiseless_round_is_answered_from_the_memo(self):
        model = ExecutionModel(seed=0)
        job, allocation = MEMO_JOBS[0], MEMO_ALLOCATIONS[1]
        plan = BatchPlan(local_bsz=64, accum_steps=1, total_batch_size=64,
                         throughput=0, efficiency=0, goodput=0)
        first = model.execute(job, allocation, plan)
        assert model.execute(job, allocation, plan) is first
        report = model.observe(job, allocation, first)
        assert model.observe(job, allocation, first) is report
        noisy = ExecutionModel(seed=0, obs_noise=0.05)
        assert noisy.observe(job, allocation, first) != \
            noisy.observe(job, allocation, first)


class TestEngine:
    def test_single_job_completes(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        assert len(result.jobs) == 1
        record = result.jobs[0]
        assert record.completed
        assert record.finish_time > record.submit_time
        assert record.num_restarts >= 0
        assert sum(record.gpu_seconds.values()) > 0

    def test_determinism(self, hetero_cluster):
        jobs = [tiny_job(f"j{i}", submit=i * 60.0) for i in range(4)]
        a = simulate(hetero_cluster, SiaScheduler(), jobs, seed=3)
        b = simulate(hetero_cluster, SiaScheduler(), jobs, seed=3)
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]

    def test_duplicate_ids_rejected(self, hetero_cluster):
        with pytest.raises(ValueError):
            Simulator(hetero_cluster, SiaScheduler(),
                      [tiny_job("x"), tiny_job("x")])

    def test_empty_jobs_rejected(self, hetero_cluster):
        with pytest.raises(ValueError):
            Simulator(hetero_cluster, SiaScheduler(), [])

    def test_idle_gap_skipped(self, hetero_cluster):
        """A late arrival must not produce thousands of idle rounds."""
        jobs = [tiny_job("late", submit=7200.0)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs)
        busy_rounds = [r for r in result.rounds if r.active_jobs > 0]
        assert busy_rounds[0].time >= 7200.0
        assert len(result.rounds) == len(busy_rounds)

    def test_restart_charged_on_start(self, hetero_cluster):
        """Even the first allocation pays the restore delay: the finish time
        must exceed pure compute time by at least the delay."""
        job = tiny_job()
        result = simulate(hetero_cluster, SiaScheduler(), [job])
        record = result.jobs[0]
        assert record.jct() >= job.restart_delay

    def test_time_cap_censors(self, hetero_cluster):
        job = make_job("big", "resnet50", 0.0, work_scale=3.0)
        result = simulate(hetero_cluster, SiaScheduler(), [job],
                          max_hours=0.1)
        assert result.censored == 1
        assert not result.jobs[0].completed

    def test_never_admitted_jobs_still_get_records(self, hetero_cluster):
        """Jobs whose submit time falls past the cap must appear in the
        result (never-started), so per-job totals sum to the trace size."""
        jobs = [tiny_job("early"),
                tiny_job("late-1", submit=100 * 3600.0),
                tiny_job("late-2", submit=200 * 3600.0)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs, max_hours=1.0)
        assert len(result.jobs) == len(jobs)
        for job_id in ("late-1", "late-2"):
            record = result.job(job_id)
            assert record.first_start is None
            assert not record.completed
            assert record.num_restarts == 0
            assert record.gpu_seconds == {}
        # trace reconciles: every job is either completed or censored
        assert len(result.completed_jobs) + result.censored == len(jobs)
        assert result.censored == 2

    def test_never_admitted_jct_clamps_to_zero(self, hetero_cluster):
        """A job submitted after the simulation horizon must not report a
        negative completion time."""
        jobs = [tiny_job("early"), tiny_job("late", submit=100 * 3600.0)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs, max_hours=1.0)
        late = result.job("late")
        assert late.jct(result.end_time) == 0.0
        assert all(t >= 0.0 for t in result.jcts_hours())

    def test_contention_tracked(self, hetero_cluster):
        jobs = [tiny_job(f"j{i}") for i in range(5)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs)
        assert all(j.avg_contention >= 1 for j in result.jobs)

    def test_round_records_allocations(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        busy = [r for r in result.rounds if r.running_jobs > 0]
        assert busy
        gpu_type, count = next(iter(busy[0].allocations.values()))
        assert count >= 1 and gpu_type in hetero_cluster.gpu_types

    def test_profiling_overhead_recorded(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()],
                          profiling_mode=ProfilingMode.BOOTSTRAP)
        assert result.jobs[0].profiling_gpu_seconds > 0
        oracle = simulate(hetero_cluster, SiaScheduler(), [tiny_job()],
                          profiling_mode=ProfilingMode.ORACLE)
        assert oracle.jobs[0].profiling_gpu_seconds == 0

    def test_jobs_make_monotone_progress(self, hetero_cluster):
        """Longer work scale means strictly later finish."""
        short = simulate(hetero_cluster, SiaScheduler(),
                         [tiny_job("s", scale=0.05)])
        long_ = simulate(hetero_cluster, SiaScheduler(),
                         [tiny_job("l", scale=0.2)])
        assert long_.jobs[0].finish_time > short.jobs[0].finish_time

    def test_hybrid_job_runs_under_sia(self, hetero_cluster):
        job = make_job("gpt", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                       max_gpus=16, work_scale=0.002)
        result = simulate(hetero_cluster, SiaScheduler(), [job],
                          max_hours=50)
        assert result.jobs[0].completed
        # All GPU time on profiled types only.
        assert set(result.jobs[0].gpu_seconds) <= {"a100", "rtx"}

    def test_mid_round_completion_interpolated(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [tiny_job()])
        finish = result.jobs[0].finish_time
        # finishing exactly on a round boundary is vanishingly unlikely
        assert finish % 60.0 != 0.0


class TestSimulatorConfig:
    def test_defaults(self):
        config = SimulatorConfig()
        assert config.profiling_mode is ProfilingMode.BOOTSTRAP
        assert config.obs_noise == 0.0

    def test_noise_changes_outcomes(self, hetero_cluster):
        jobs = [tiny_job(f"j{i}") for i in range(3)]
        clean = simulate(hetero_cluster, SiaScheduler(), jobs)
        noisy = simulate(hetero_cluster, SiaScheduler(), jobs,
                         rate_noise=0.3, seed=5)
        assert [j.finish_time for j in clean.jobs] != \
            [j.finish_time for j in noisy.jobs]
