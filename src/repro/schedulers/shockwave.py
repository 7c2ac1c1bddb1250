"""Shockwave baseline (simplified from [61]).

Shockwave schedules *rigid* jobs (fixed GPU count and batch size) and plans
for finish-time fairness while penalizing schedules with large makespan.
The full system solves a market-equilibrium program over future epochs; we
reproduce the behaviour the paper compares against with a priority
mechanism that keeps its two signature ingredients (documented as a
simplification in DESIGN.md):

* jobs are prioritized by their *projected finish-time-fairness ratio* —
  how much later than its fair isolated finish the job will land if it
  keeps waiting — which bounds worst-case unfairness;
* a progress-efficiency tiebreak prefers jobs with little remaining work,
  which trims both average JCT and makespan (the Table 4 gap over Themis).

Rounds are 360 s (Section 4.3).
"""

from __future__ import annotations

import math

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation, Configuration
from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   pack_gpus_on_type)


def fair_finish_ratio(view: JobView, cluster: Cluster, now: float,
                      contention: int) -> float:
    """Projected FTF ratio: (elapsed + remaining at the job's fixed
    allocation) / (isolated finish in a 1/contention-sized cluster)."""
    count = max(1, view.job.effective_min_gpus)
    best_rate = 0.0
    for gpu_type in cluster.gpu_types:
        if count > cluster.capacity(gpu_type):
            continue
        nodes = max(1, -(-count // cluster.max_node_size(gpu_type)))
        rate = view.estimator.goodput(Configuration(nodes, count, gpu_type))
        best_rate = max(best_rate, rate)
    if best_rate <= 0:
        return math.inf
    remaining_work = view.job.target_samples - view.progress
    isolated = view.job.target_samples / best_rate
    elapsed = now - view.job.submit_time
    projected = elapsed + remaining_work / best_rate
    # In a fair cluster the job would share with `contention` peers.
    fair_jct = isolated * max(1, contention)
    return projected / fair_jct


class ShockwaveScheduler(Scheduler):
    """FTF-aware inelastic scheduler with an efficiency/makespan tier.

    Two-tier priority: jobs whose projected FTF ratio exceeds
    ``unfair_threshold`` form an "at-risk" tier served worst-first (bounding
    unfairness); everyone else is served shortest-remaining-first, which
    trims average JCT and makespan — the Table 4 gap over Themis.
    """

    name = "shockwave"
    oracle_estimators = True
    #: FTF ratio above which a job jumps to the at-risk tier.
    unfair_threshold: float = 1.0

    def __init__(self, round_duration: float = 360.0,
                 unfair_threshold: float = 1.0):
        self.round_duration = round_duration
        self.unfair_threshold = unfair_threshold

    def _priority(self, view: JobView, cluster: Cluster, now: float,
                  contention: int) -> tuple[int, float]:
        rho = fair_finish_ratio(view, cluster, now, contention)
        if math.isinf(rho):
            return (-1, 0.0)
        if rho > self.unfair_threshold:
            return (1, rho)  # at-risk tier: most unfair first
        remaining = view.remaining_fraction * view.job.target_samples
        return (0, -remaining)  # fair tier: shortest remaining work first

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        with self.planning(views) as timer:
            with timer.phase("bootstrap"):
                contention = len(views)
            with timer.phase("goodput_eval"):
                priorities = [self._priority(v, cluster, now, contention)
                              for v in views]
            with timer.phase("solve"):
                ranked = [views[i] for i in
                          sorted(range(len(views)),
                                 key=lambda i: priorities[i], reverse=True)]
            with timer.phase("placement"):
                plan = RoundPlan()
                occupancy: dict[int, int] = {}
                for view in ranked:
                    allocation = place_rigid(view, cluster, occupancy,
                                             previous.get(view.job_id))
                    if allocation is not None:
                        plan.allocations[view.job_id] = allocation
            self.record_estimates(views, plan)
            return timer.finish(plan)


def place_rigid(view: JobView, cluster: Cluster, occupancy: dict[int, int],
                previous: Allocation | None) -> Allocation | None:
    """Place a rigid job's fixed GPU count: stay put (no checkpoint-restore)
    unless the current GPU type is less than half as fast as the best
    available one, in which case the restart is worth paying."""
    count = max(1, view.job.effective_min_gpus)
    types = cluster.gpu_types
    # One estimator query rates the job on every type.
    configs = [Configuration(max(1, -(-count // cluster.max_node_size(t))),
                             count, t) for t in types]
    rates = dict(zip(types,
                     view.estimator.goodput_batch(configs).tolist()))

    by_rate = sorted(types, key=lambda t: -rates[t])
    ordered_types: list[str] = []
    if previous is not None and by_rate \
            and rates[previous.gpu_type] >= 0.5 * rates[by_rate[0]]:
        ordered_types.append(previous.gpu_type)
    for gpu_type in by_rate:
        if gpu_type not in ordered_types:
            ordered_types.append(gpu_type)
    for gpu_type in ordered_types:
        if count > cluster.capacity(gpu_type):
            continue
        if rates[gpu_type] <= 0:
            continue
        preferred = previous.node_ids if previous is not None \
            and previous.gpu_type == gpu_type else ()
        allocation = pack_gpus_on_type(cluster, gpu_type, count,
                                       occupancy, preferred)
        if allocation is not None:
            return allocation
    return None
