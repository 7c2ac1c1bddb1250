"""Table 4: the Homogeneous setting (16x t4 nodes, Philly trace).

Sia vs Pollux (adaptive) vs Shockwave+TJ, Themis+TJ, Gavel+TJ (inelastic).
Shapes: Sia ~ Pollux (ILP matches the GA on its home turf); both beat all
inelastic baselines by a wide margin (paper: 50-70%); Shockwave is the best
inelastic baseline; Sia restarts less than Pollux.
"""

from __future__ import annotations

from conftest import bench_scale, emit, run_once_benchmarked, simulated_columns

from repro.analysis import format_table, run_once, sample_trace
from repro.cluster import presets
from repro.metrics import summarize
from repro.schedulers import (GavelScheduler, PolluxScheduler,
                              ShockwaveScheduler, SiaScheduler,
                              ThemisScheduler)
from repro.workloads import tuned_jobs


def run_table4():
    scale = bench_scale()
    cluster = presets.homogeneous()
    trace = sample_trace("philly", seed=0, scale=scale)
    rigid = tuned_jobs(trace.jobs, cluster, seed=0)
    summaries = {}
    for name, scheduler, jobs in [
        ("sia", SiaScheduler(), trace.jobs),
        ("pollux", PolluxScheduler(), trace.jobs),
        ("shockwave", ShockwaveScheduler(), rigid),
        ("themis", ThemisScheduler(), rigid),
        ("gavel", GavelScheduler(), rigid),
    ]:
        summaries[name] = summarize(run_once(cluster, scheduler, jobs,
                                             scale=scale))
    return summaries


def test_table4_homogeneous(benchmark):
    summaries = run_once_benchmarked(benchmark, run_table4)
    rows = [simulated_columns(s.as_row()) for s in summaries.values()]
    emit("table4_homogeneous",
         format_table(rows, title="Table 4: homogeneous 64-GPU (16x t4)"))

    sia = summaries["sia"]
    pollux = summaries["pollux"]
    inelastic = {k: summaries[k] for k in ("shockwave", "themis", "gavel")}

    # Sia matches Pollux in Pollux's home setting (Table 4 parity).
    assert sia.avg_jct_hours <= 1.25 * pollux.avg_jct_hours
    # Both adaptive schedulers beat every inelastic baseline.
    for name, summary in inelastic.items():
        assert sia.avg_jct_hours < summary.avg_jct_hours, name
        assert pollux.avg_jct_hours < summary.avg_jct_hours, name
    # Shockwave is the best inelastic baseline on average JCT.
    assert inelastic["shockwave"].avg_jct_hours <= \
        min(inelastic["themis"].avg_jct_hours,
            inelastic["gavel"].avg_jct_hours) * 1.05
    # Sia restarts less than Pollux (Section 5.4: 2.6 vs 5.1 per job).
    assert sia.avg_restarts <= pollux.avg_restarts
