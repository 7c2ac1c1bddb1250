"""Table 3: Sia vs Pollux vs Gavel+TunedJobs in the Heterogeneous setting,
on Philly-, Helios- and newTrace-like workloads.

Columns reproduced: avg/p99 JCT, makespan, GPU-hours/job, avg/max
contention, avg restarts.  Shapes asserted (paper's claims):

* Sia < Pollux < Gavel on average JCT for every trace (30-93% reductions);
* Sia uses the fewest GPU-hours per job (12-60% fewer);
* Pollux restarts jobs more than Sia (1-GPU allocation steps);
* Gavel's contention blows up on the congested newTrace (paper: ~7x Sia).
"""

from __future__ import annotations

import pytest
from conftest import (bench_scale, emit, newtrace_scale, run_once_benchmarked,
                      simulated_columns)

from repro.analysis import compare_on_trace, format_table, sample_trace
from repro.cluster import presets

TRACES = ("philly", "helios", "newtrace")


def run_trace(trace_name: str):
    scale = newtrace_scale() if trace_name == "newtrace" else bench_scale()
    cluster = presets.heterogeneous()
    trace = sample_trace(trace_name, seed=0, scale=scale)
    return compare_on_trace(cluster, trace, scale=scale)


@pytest.mark.parametrize("trace_name", TRACES)
def test_table3(benchmark, trace_name):
    outcome = run_once_benchmarked(benchmark, lambda: run_trace(trace_name))
    summaries = outcome.summaries()
    rows = [dict(trace=trace_name, **simulated_columns(s.as_row()))
            for s in summaries.values()]
    emit(f"table3_{trace_name}",
         format_table(rows, title=f"Table 3 ({trace_name}): heterogeneous "
                                  "64-GPU cluster"))

    sia, pollux, gavel = (summaries[k] for k in ("sia", "pollux", "gavel"))
    # Headline orderings.
    assert sia.avg_jct_hours < pollux.avg_jct_hours < gavel.avg_jct_hours
    assert sia.p99_jct_hours <= gavel.p99_jct_hours
    assert sia.avg_gpu_hours_per_job < gavel.avg_gpu_hours_per_job
    # Rough factors: paper reports 30-93% avgJCT reduction vs baselines.
    assert sia.avg_jct_hours < 0.8 * pollux.avg_jct_hours
    assert sia.avg_jct_hours < 0.5 * gavel.avg_jct_hours
    # Everyone finishes the trace at bench scale.
    assert sia.completed_jobs == sia.num_jobs
    if trace_name == "newtrace":
        # Congestion feedback loop: Gavel's queue explodes.
        assert gavel.avg_contention > 2 * sia.avg_contention
