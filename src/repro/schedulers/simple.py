"""Simple rigid-job baselines: FIFO and SRTF.

Not evaluated in the paper's headline tables, but useful as sanity
anchors — any scheduler in this repo should beat FIFO on average JCT under
contention — and as ablation baselines.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation, Configuration
from repro.schedulers.base import JobView, RoundPlan, Scheduler
from repro.schedulers.shockwave import place_rigid


class FIFOScheduler(Scheduler):
    """First-come-first-served, no preemption of running jobs."""

    name = "fifo"
    oracle_estimators = True

    def __init__(self, round_duration: float = 360.0):
        self.round_duration = round_duration

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        plan = RoundPlan()
        occupancy: dict[int, int] = {}
        with self.tracer.span("bootstrap"):
            # Running jobs keep their exact allocation.
            for view in views:
                prev = previous.get(view.job_id)
                if prev is not None:
                    for node_id, count in prev.gpus_per_node:
                        occupancy[node_id] = \
                            occupancy.get(node_id, 0) + count
                    plan.allocations[view.job_id] = prev
        with self.tracer.span("goodput_eval"):
            pass  # FIFO ignores rates; placement probes them lazily.
        with self.tracer.span("solve"):
            # Queued jobs start in submission order.
            queued = sorted(
                (v for v in views if v.job_id not in plan.allocations),
                key=lambda v: v.job.submit_time)
        with self.tracer.span("placement"):
            for view in queued:
                allocation = place_rigid(view, cluster, occupancy, None)
                if allocation is not None:
                    plan.allocations[view.job_id] = allocation
        self.record_estimates(views, plan)
        return plan


class SRTFScheduler(Scheduler):
    """Shortest-remaining-time-first with preemption."""

    name = "srtf"
    oracle_estimators = True

    def __init__(self, round_duration: float = 360.0):
        self.round_duration = round_duration

    def _remaining_time(self, view: JobView, cluster: Cluster) -> float:
        count = max(1, view.job.effective_min_gpus)
        best = 0.0
        for gpu_type in cluster.gpu_types:
            if count > cluster.capacity(gpu_type):
                continue
            nodes = max(1, -(-count // cluster.max_node_size(gpu_type)))
            best = max(best, view.estimator.goodput(
                Configuration(nodes, count, gpu_type)))
        if best <= 0:
            return float("inf")
        return (view.job.target_samples - view.progress) / best

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        with self.tracer.span("bootstrap"):
            plan = RoundPlan()
            occupancy: dict[int, int] = {}
        with self.tracer.span("goodput_eval"):
            remaining = [self._remaining_time(v, cluster) for v in views]
        with self.tracer.span("solve"):
            ranked = [views[i] for i in
                      sorted(range(len(views)),
                             key=lambda i: remaining[i])]
        with self.tracer.span("placement"):
            for view in ranked:
                allocation = place_rigid(view, cluster, occupancy,
                                         previous.get(view.job_id))
                if allocation is not None:
                    plan.allocations[view.job_id] = allocation
        self.record_estimates(views, plan)
        return plan
