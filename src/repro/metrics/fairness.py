"""Finish-time fairness (Section 5.5).

Mahajan et al. define the FTF ratio of a job as its shared-cluster JCT over
its JCT in an isolated cluster of ``N_gpus / N_avg`` GPUs, where ``N_avg``
is the average contention the job observed.  The paper extends this to
heterogeneous clusters (Equation 6)::

    rho = sum_g P(G = g) * rho_g

where ``P(G = g)`` is the fraction of cluster GPUs of type ``g`` and
``rho_g`` the homogeneous FTF ratio computed against an isolated cluster of
``N_g / N_avg`` GPUs of type ``g``.  Types a job's model cannot run on at
all (e.g. a 2.8B model on 16 GB GPUs) are excluded and the weights
renormalized — the isolated baseline must be a cluster the job could
actually use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.jobs.job import Job, isolated_runtime
from repro.sim.telemetry import JobRecord, SimulationResult


def isolated_jct(job: Job, gpu_type: str, cluster: Cluster,
                 avg_contention: float) -> float:
    """JCT of the job alone on its fair share of one GPU type.

    The fair-sized isolated cluster has ``N_g / N_avg`` GPUs; the job uses
    at most its declared maximum of them.  Returns ``inf`` if the model
    cannot run on this GPU type.
    """
    capacity = cluster.capacity(gpu_type)
    fair = max(1, int(capacity / max(1.0, avg_contention)))
    count = min(fair, job.effective_max_gpus)
    node_size = cluster.max_node_size(gpu_type)
    nodes = max(1, -(-count // node_size))
    return isolated_runtime(job, gpu_type, count, nodes)


def ftf_ratio(job: Job, record: JobRecord, cluster: Cluster,
              horizon: float) -> float:
    """Heterogeneous finish-time-fairness ratio (Equation 6) for one job."""
    shared_jct = record.jct(horizon)
    total = cluster.total_gpus
    weighted = 0.0
    weight_sum = 0.0
    for gpu_type in cluster.gpu_types:
        baseline = isolated_jct(job, gpu_type, cluster,
                                max(1.0, record.avg_contention))
        if math.isinf(baseline):
            continue  # model cannot run on this type; exclude and renormalize
        weight = cluster.capacity(gpu_type) / total
        weighted += weight * (shared_jct / baseline)
        weight_sum += weight
    if weight_sum == 0.0:
        raise ValueError(
            f"job {job.job_id}: no GPU type can run model {job.model_name}")
    return weighted / weight_sum


@dataclass
class FairnessMetrics:
    """The three fairness quantities of Section 5.5."""

    scheduler: str
    worst_ftf: float
    unfair_fraction: float
    ratios: list[float]


def fairness_metrics(result: SimulationResult, jobs: list[Job],
                     cluster: Cluster) -> FairnessMetrics:
    """Worst FTF ratio, unfair job fraction (rho > 1), and every ratio."""
    by_id = {job.job_id: job for job in jobs}
    ratios: list[float] = []
    for record in result.jobs:
        job = by_id.get(record.job_id)
        if job is None:
            raise KeyError(f"result has unknown job {record.job_id!r}")
        ratios.append(ftf_ratio(job, record, cluster, result.end_time))
    if not ratios:
        raise ValueError("no jobs to evaluate")
    unfair = sum(1 for r in ratios if r > 1.0) / len(ratios)
    return FairnessMetrics(scheduler=result.scheduler_name,
                           worst_ftf=max(ratios),
                           unfair_fraction=unfair,
                           ratios=ratios)
