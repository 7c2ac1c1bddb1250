"""Simulator-wide invariants, checked over randomized scenarios.

These are conservation laws any correct round-based cluster simulator must
satisfy regardless of scheduler: capacity is never exceeded in any round,
GPU-seconds accounting is consistent with the allocation log, completion
times are causal, and contention statistics are well-formed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import presets
from repro.jobs.job import make_job
from repro.schedulers import (GavelScheduler, PolluxScheduler, SiaScheduler)
from repro.sim import simulate
from repro.workloads import philly_trace, tuned_jobs

SCHEDULERS = {
    "sia": lambda: SiaScheduler(),
    "pollux": lambda: PolluxScheduler(),
    "gavel": lambda: GavelScheduler(),
}


def run_random_scenario(seed: int, scheduler_name: str):
    cluster = presets.heterogeneous()
    trace = philly_trace(seed=seed, num_jobs=8, work_scale_factor=0.08,
                         window_hours=0.3)
    jobs = trace.jobs
    if scheduler_name == "gavel":
        jobs = tuned_jobs(jobs, cluster, seed=seed)
    result = simulate(cluster, SCHEDULERS[scheduler_name](), jobs,
                      seed=seed, max_hours=50)
    return cluster, jobs, result


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50),
       scheduler_name=st.sampled_from(sorted(SCHEDULERS)))
def test_capacity_never_exceeded(seed, scheduler_name):
    cluster, _, result = run_random_scenario(seed, scheduler_name)
    for rnd in result.rounds:
        for gpu_type, used in rnd.gpus_used.items():
            assert used <= cluster.capacity(gpu_type), \
                (scheduler_name, rnd.time)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50),
       scheduler_name=st.sampled_from(sorted(SCHEDULERS)))
def test_gpu_seconds_match_allocation_log(seed, scheduler_name):
    """Per-job GPU-second accounting must agree with the round log within
    one round per job (final partial rounds are charged exactly)."""
    _, _, result = run_random_scenario(seed, scheduler_name)
    dt = 360.0 if scheduler_name == "gavel" else 60.0
    logged: dict[str, float] = {}
    for rnd in result.rounds:
        for job_id, (_, count) in rnd.allocations.items():
            logged[job_id] = logged.get(job_id, 0.0) + count * dt
    for record in result.jobs:
        charged = sum(record.gpu_seconds.values())
        assert charged <= logged.get(record.job_id, 0.0) + 1e-6
        # a job is never charged more than one full round less than logged
        if record.job_id in logged:
            last_count = max(1, max(
                (count for rnd in result.rounds
                 for jid, (_, count) in rnd.allocations.items()
                 if jid == record.job_id), default=1))
            assert charged >= logged[record.job_id] - dt * last_count - 1e-6


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50),
       scheduler_name=st.sampled_from(sorted(SCHEDULERS)))
def test_completion_causality(seed, scheduler_name):
    _, _, result = run_random_scenario(seed, scheduler_name)
    for record in result.jobs:
        if record.first_start is not None:
            assert record.first_start >= record.submit_time
        if record.finish_time is not None:
            assert record.first_start is not None
            assert record.finish_time > record.first_start
        assert record.avg_contention >= 1.0


def test_non_preemptible_job_never_loses_resources():
    """A non-preemptible job keeps the same allocation from first start to
    finish, even under heavy competition (Section 3.4)."""
    cluster = presets.heterogeneous()
    pinned = make_job("pinned", "bert", 0.0, work_scale=0.3,
                      preemptible=False)
    competitors = [make_job(f"c{i}", "bert", 120.0, work_scale=0.1)
                   for i in range(12)]
    result = simulate(cluster, SiaScheduler(), [pinned, *competitors],
                      max_hours=50)
    timeline = [(gpu, n) for _, gpu, n in
                result.allocation_timeline("pinned") if n > 0]
    assert result.job("pinned").completed
    # one distinct allocation for its entire running life
    assert len(set(timeline)) == 1
    assert result.job("pinned").num_restarts == 0
