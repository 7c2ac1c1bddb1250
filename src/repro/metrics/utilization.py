"""Cluster-utilization metrics: GPU occupancy over time."""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.sim.telemetry import SimulationResult


def average_utilization(result: SimulationResult, cluster: Cluster) -> float:
    """Fraction of cluster GPUs held by jobs, averaged over non-idle rounds."""
    total = cluster.total_gpus
    busy_rounds = [r for r in result.rounds if r.active_jobs > 0]
    if not busy_rounds:
        return 0.0
    used = [sum(r.gpus_used.values()) / total for r in busy_rounds]
    return sum(used) / len(used)
