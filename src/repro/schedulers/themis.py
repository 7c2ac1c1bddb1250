"""Themis baseline (simplified from [34]).

Themis targets finish-time fairness via partial-allocation auctions over
the 1-f fraction of most unfairly-treated jobs.  Our simplification keeps
the behaviour the paper measures: each 360 s round, jobs are ranked purely
by their projected finish-time-fairness ratio (worst first) and receive
their fixed allocation greedily until the cluster is full.  Unlike
Shockwave there is no efficiency/makespan term — which is exactly why
Themis trails Shockwave on average JCT and makespan in Table 4.
"""

from __future__ import annotations

import math

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation
from repro.schedulers.base import JobView, RoundPlan, Scheduler
from repro.schedulers.shockwave import fair_finish_ratio, place_rigid


class ThemisScheduler(Scheduler):
    """Pure finish-time-fairness priority scheduler for rigid jobs."""

    name = "themis"
    oracle_estimators = True

    def __init__(self, round_duration: float = 360.0):
        self.round_duration = round_duration

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        with self.tracer.span("bootstrap"):
            contention = len(views)
        with self.tracer.span("goodput_eval"):
            rhos = [self._finite_rho(v, cluster, now, contention)
                    for v in views]
        with self.tracer.span("solve"):
            ranked = [views[i] for i in
                      sorted(range(len(views)), key=lambda i: -rhos[i])]
        with self.tracer.span("placement"):
            plan = RoundPlan()
            occupancy: dict[int, int] = {}
            for view in ranked:
                allocation = place_rigid(view, cluster, occupancy,
                                         previous.get(view.job_id))
                if allocation is not None:
                    plan.allocations[view.job_id] = allocation
        self.record_estimates(views, plan)
        return plan

    @staticmethod
    def _finite_rho(view: JobView, cluster: Cluster, now: float,
                    contention: int) -> float:
        rho = fair_finish_ratio(view, cluster, now, contention)
        return -math.inf if math.isinf(rho) else rho
