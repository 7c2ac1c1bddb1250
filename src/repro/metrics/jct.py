"""Scheduler performance metrics: JCT statistics, makespan, GPU-hours,
contention, restarts — the columns of Tables 3 and 4."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.telemetry import SimulationResult


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; q in [0, 100]."""
    if not values:
        raise ValueError("need at least one value")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class SummaryMetrics:
    """One row of a Table 3/4-style comparison."""

    scheduler: str
    num_jobs: int
    completed_jobs: int
    avg_jct_hours: float
    p99_jct_hours: float
    makespan_hours: float
    avg_gpu_hours_per_job: float
    avg_contention: float
    max_contention: int
    avg_restarts: float
    median_solve_time: float
    #: rounds that ran on a carried-forward plan (0 without faults).
    degraded_rounds: int = 0
    #: injected fault events over the whole run (0 without faults).
    fault_events: int = 0

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "scheduler": self.scheduler,
            "jobs": self.num_jobs,
            "completed": self.completed_jobs,
            "avg_jct_h": round(self.avg_jct_hours, 3),
            "p99_jct_h": round(self.p99_jct_hours, 3),
            "makespan_h": round(self.makespan_hours, 3),
            "gpu_h_per_job": round(self.avg_gpu_hours_per_job, 3),
            "avg_contention": round(self.avg_contention, 2),
            "max_contention": self.max_contention,
            "avg_restarts": round(self.avg_restarts, 2),
            "median_solve_s": round(self.median_solve_time, 4),
            "degraded": self.degraded_rounds,
            "faults": self.fault_events,
        }


def summarize(result: SimulationResult) -> SummaryMetrics:
    """Compute the standard comparison row from one simulation result."""
    jcts = result.jcts_hours()
    gpu_hours = result.gpu_hours_per_job()
    active_counts = [r.active_jobs for r in result.rounds if r.active_jobs > 0]
    return SummaryMetrics(
        scheduler=result.scheduler_name,
        num_jobs=len(result.jobs),
        completed_jobs=len(result.completed_jobs),
        avg_jct_hours=float(np.mean(jcts)),
        p99_jct_hours=percentile(jcts, 99),
        makespan_hours=result.makespan_hours,
        avg_gpu_hours_per_job=float(np.mean(gpu_hours)),
        avg_contention=float(np.mean(active_counts)) if active_counts else 0.0,
        max_contention=max(active_counts) if active_counts else 0,
        avg_restarts=float(np.mean([j.num_restarts for j in result.jobs])),
        median_solve_time=result.median_solve_time(),
        degraded_rounds=result.degraded_rounds,
        fault_events=result.total_fault_events,
    )


def gpu_hours_by_model(result: SimulationResult) -> dict[str, dict[str, float]]:
    """model -> gpu_type -> average GPU-hours per job (Figure 6)."""
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for record in result.jobs:
        counts[record.model_name] = counts.get(record.model_name, 0) + 1
        bucket = totals.setdefault(record.model_name, {})
        for gpu_type, seconds in record.gpu_seconds.items():
            bucket[gpu_type] = bucket.get(gpu_type, 0.0) + seconds / 3600.0
    return {
        model: {t: hours / counts[model] for t, hours in bucket.items()}
        for model, bucket in totals.items()
    }
