"""Ablations of Sia design choices called out in DESIGN.md.

* **Solver**: exact ILP vs greedy — the ILP's optimality guarantee should
  never hurt, and the greedy heuristic (the lattice DP's incumbent over
  every GPU type) stays within a modest factor (it is the cheap ablation
  baseline, not the design point).
* **Restart factor** (Equation 3): disabling it must increase reallocation
  churn (restarts per job); the paper's motivation is that without it
  "tiny changes in G would result in altering some jobs' resources".
* **ILP runtime by backend**: greedy is cheaper per round than the MILP.
"""

from __future__ import annotations

from conftest import bench_scale, emit, run_once_benchmarked

from repro.analysis import format_table, run_once, sample_trace
from repro.cluster import presets
from repro.core.policy import SiaPolicyParams
from repro.metrics import fairness_metrics, summarize
from repro.schedulers import GavelScheduler, SiaScheduler
from repro.workloads import tuned_jobs


def run_ablations():
    scale = bench_scale()
    cluster = presets.heterogeneous()
    trace = sample_trace("helios", seed=0, scale=scale)
    variants = {
        "sia (milp)": SiaPolicyParams(),
        "sia (greedy)": SiaPolicyParams(solver="greedy"),
        "sia (no restart factor)": SiaPolicyParams(use_restart_factor=False),
    }
    out = {}
    for name, params in variants.items():
        out[name] = summarize(run_once(cluster, SiaScheduler(params),
                                       trace.jobs, scale=scale))
    return out


def test_design_ablations(benchmark):
    results = run_once_benchmarked(benchmark, run_ablations)
    rows = [dict(variant=name, **{
        "avg_jct_h": round(s.avg_jct_hours, 3),
        "avg_restarts": round(s.avg_restarts, 2),
    }) for name, s in results.items()]
    emit("ablations", format_table(rows, title="Sia design ablations"))
    solve_rows = [{"variant": name,
                   "median_solve_s": round(s.median_solve_time, 4)}
                  for name, s in results.items()]
    emit("ablations_solve_time",
         format_table(solve_rows, title="Sia design ablations: solve time"),
         wall_clock=True)

    milp = results["sia (milp)"]
    greedy = results["sia (greedy)"]
    no_restart = results["sia (no restart factor)"]

    # The exact solver is no worse than greedy on JCT.
    assert milp.avg_jct_hours <= greedy.avg_jct_hours * 1.1
    # Removing the restart factor increases churn.
    assert no_restart.avg_restarts > milp.avg_restarts
    # All variants complete the workload.
    for summary in results.values():
        assert summary.completed_jobs == summary.num_jobs


def run_gavel_policies():
    scale = bench_scale()
    cluster = presets.heterogeneous()
    trace = sample_trace("helios", seed=1, scale=scale)
    rigid = tuned_jobs(trace.jobs, cluster, seed=1)
    out = {}
    for policy in GavelScheduler.POLICIES:
        result = run_once(cluster, GavelScheduler(policy=policy), rigid,
                          scale=scale)
        out[policy] = (summarize(result),
                       fairness_metrics(result, rigid, cluster))
    return out


def test_gavel_policy_ablation(benchmark):
    """Gavel's two policies trade efficiency for fairness: max-min fairness
    spreads service (bounding the JCT tail under saturation) while
    max-sum-throughput minimizes average JCT (Section 4.3 picks it for that
    reason)."""
    results = run_once_benchmarked(benchmark, run_gavel_policies)
    rows = [{
        "policy": policy,
        "avg_jct_h": round(summary.avg_jct_hours, 3),
        "p99_jct_h": round(summary.p99_jct_hours, 3),
        "worst_ftf": round(fairness.worst_ftf, 2),
    } for policy, (summary, fairness) in results.items()]
    emit("ablation_gavel_policies",
         format_table(rows, title="Gavel policy ablation"))

    max_sum = results["max_sum_throughput"]
    max_min = results["max_min_fairness"]
    # max-min fairness meaningfully improves the worst-case FTF ratio
    # (its whole point: no job is starved by the throughput objective)...
    assert max_min[1].worst_ftf < 0.8 * max_sum[1].worst_ftf
    # ...while staying in the same average-JCT ballpark at bench scale
    # (the paper's full-scale traces separate them further).
    assert max_sum[0].avg_jct_hours <= max_min[0].avg_jct_hours * 1.2
    for summary, _ in results.values():
        assert summary.completed_jobs == summary.num_jobs
