"""Rigid-job baselines: FIFO, SRTF, Themis and Shockwave (Section 4.3).

Rigid baselines run TunedJobs — a GPU count and batch size fixed at
submission — on 360 s rounds.  They share one round: rate every job at its
fixed GPU count on each GPU type (one estimator call per job), rank the
jobs in the policy's serving order, and place them in that order until the
cluster is full.  A policy is its serving order:

* **FIFO** serves queued jobs in submission order; running jobs keep their
  exact allocation (no preemption).  A sanity anchor: every scheduler in
  this repo should beat it on average JCT under contention.
* **SRTF** serves the least remaining time at the job's best rate first,
  with preemption.
* **Themis** (simplified from [34]) targets finish-time fairness through
  partial-allocation auctions over the 1-f fraction of most unfairly
  treated jobs.  We keep the behaviour the paper measures: jobs are served
  worst projected finish-time-fairness (FTF) ratio first.  There is no
  efficiency/makespan term, which is why Themis trails Shockwave on
  average JCT and makespan in Table 4.
* **Shockwave** (simplified from [61]) solves a market-equilibrium program
  over future epochs that plans for finish-time fairness while penalizing
  large makespan.  We keep its two signature ingredients as a two-tier
  priority: jobs whose FTF ratio exceeds :data:`UNFAIR_THRESHOLD` form an
  at-risk tier served most-unfair first (bounding unfairness); the rest
  are served least remaining work first, which trims average JCT and
  makespan (the Table 4 gap over Themis).

These simplifications are documented in DESIGN.md.
"""

from __future__ import annotations

import math

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation
from repro.perf.estimator import PlanMemo, goodput_rows
from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   pack_gpus_on_type)

#: Section 4.3: the rigid baselines (and Gavel) plan every 360 s.
RIGID_ROUND_S = 360.0
#: FTF ratio above which Shockwave moves a job to its at-risk tier.
UNFAIR_THRESHOLD = 1.0


def fixed_count(view: JobView) -> int:
    """The GPU count a rigid job always runs with."""
    return max(1, view.job.effective_min_gpus)


def fixed_count_rates(views: list[JobView], cluster: Cluster,
                      memo: PlanMemo | None = None) -> list[dict[str, float]]:
    """Each job's goodput at its fixed GPU count on every GPU type, in
    ``cluster.gpu_types`` order, from one goodput pass over all the jobs
    (:func:`~repro.perf.estimator.goodput_rows`, with the scheduler's plan
    ``memo``).  Each type spans the fewest of its largest nodes
    (:meth:`~repro.cluster.cluster.Cluster.spanning_configs`, one list per
    count and cluster object); a type with fewer GPUs than the count is
    rated too (callers that need it to fit check capacity)."""
    rows, _ = goodput_rows([(view.estimator,
                             cluster.spanning_configs(fixed_count(view)))
                            for view in views], memo=memo)
    types = cluster.largest_nodes
    return [dict(zip(types, row.tolist())) for row in rows]


def best_rate(view: JobView, rates: dict[str, float],
              capacities: dict[str, int]) -> float:
    """The highest of the job's ``rates`` on a GPU type with enough GPUs
    for its fixed count (0 when no type is large enough)."""
    count = fixed_count(view)
    return max([0.0] + [rate for gpu_type, rate in rates.items()
                        if count <= capacities[gpu_type]])


def fair_finish_ratio(view: JobView, rate: float, now: float,
                      contention: int) -> float:
    """Projected FTF ratio of a job whose best rate is ``rate``: (elapsed +
    remaining at that rate) / (isolated finish in a 1/contention-sized
    cluster).  Infinite when no GPU type can run the job (``rate <= 0``)."""
    if rate <= 0:
        return math.inf
    remaining_work = view.job.target_samples - view.progress
    isolated = view.job.target_samples / rate
    elapsed = now - view.job.submit_time
    projected = elapsed + remaining_work / rate
    # In a fair cluster the job would share with `contention` peers.
    fair_jct = isolated * max(1, contention)
    return projected / fair_jct


def place_rigid(view: JobView, rates: dict[str, float], cluster: Cluster,
                occupancy: dict[int, int],
                previous: Allocation | None) -> Allocation | None:
    """Place a rigid job's fixed GPU count (``rates`` from
    :func:`fixed_count_rates`): stay put (no checkpoint-restore) unless the
    current GPU type is less than half as fast as the best one, in which
    case the restart is worth paying; otherwise try types fastest first.
    A type with fewer GPUs than the count never packs."""
    count = fixed_count(view)
    by_rate = sorted(rates, key=lambda t: -rates[t])
    ordered_types: list[str] = []
    if previous is not None and by_rate \
            and rates[previous.gpu_type] >= 0.5 * rates[by_rate[0]]:
        ordered_types.append(previous.gpu_type)
    for gpu_type in by_rate:
        if gpu_type not in ordered_types:
            ordered_types.append(gpu_type)
    for gpu_type in ordered_types:
        if rates[gpu_type] <= 0:
            continue
        preferred = previous.node_ids if previous is not None \
            and previous.gpu_type == gpu_type else ()
        allocation = pack_gpus_on_type(cluster, gpu_type, count,
                                       occupancy, preferred)
        if allocation is not None:
            return allocation
    return None


class RigidScheduler(Scheduler):
    """One round for every rigid baseline: ``bootstrap`` (keep what the
    policy never preempts), ``goodput_eval`` (:func:`fixed_count_rates`),
    ``solve`` and ``placement`` (:func:`place_rigid` in serving order).

    ``solve`` sorts by each subclass's ``serving_key(view, rate, now,
    contention)``: ``rate`` is the job's best goodput on a GPU type that
    can hold it (0 when none can), ``contention`` the number of active
    jobs."""

    oracle_estimators = True
    round_duration = RIGID_ROUND_S
    #: serve the largest keys first (ties keep the views' order either way).
    reverse = False

    def keep(self, views: list[JobView], previous: dict[str, Allocation],
             plan: RoundPlan, occupancy: dict[int, int]) -> list[JobView]:
        """Put the allocations this policy never preempts into ``plan`` and
        ``occupancy``; return the jobs left to place.  The default preempts
        every job each round."""
        return views

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        plan = RoundPlan()
        occupancy: dict[int, int] = {}
        with self.tracer.span("bootstrap"):
            queued = self.keep(views, previous, plan, occupancy)
        with self.goodput_eval():
            rates = fixed_count_rates(queued, cluster, self.plan_memo)
        with self.tracer.span("solve"):
            # FIFO often has nothing queued; skip the cluster scan then.
            capacities = cluster.capacities() if queued else {}
            keys = [self.serving_key(v, best_rate(v, r, capacities), now,
                                     len(views))
                    for v, r in zip(queued, rates)]
            order = sorted(range(len(queued)), key=keys.__getitem__,
                           reverse=self.reverse)
        with self.tracer.span("placement"):
            for i in order:
                view = queued[i]
                allocation = place_rigid(view, rates[i], cluster, occupancy,
                                         previous.get(view.job_id))
                if allocation is not None:
                    plan.allocations[view.job_id] = allocation
        return self.record_estimates(views, plan)


class FIFOScheduler(RigidScheduler):
    """First-come-first-served, no preemption of running jobs."""

    name = "fifo"

    def keep(self, views, previous, plan, occupancy):
        queued = []
        for view in views:
            prev = previous.get(view.job_id)
            if prev is None:
                queued.append(view)
                continue
            for node_id, count in prev.gpus_per_node:
                occupancy[node_id] = occupancy.get(node_id, 0) + count
            plan.allocations[view.job_id] = prev
        return queued

    def serving_key(self, view, rate, now, contention):
        return view.job.submit_time


class SRTFScheduler(RigidScheduler):
    """Shortest-remaining-time-first with preemption."""

    name = "srtf"

    def serving_key(self, view, rate, now, contention):
        if rate <= 0:
            return math.inf
        return (view.job.target_samples - view.progress) / rate


class ThemisScheduler(RigidScheduler):
    """Pure finish-time-fairness priority scheduler for rigid jobs."""

    name = "themis"

    def serving_key(self, view, rate, now, contention):
        rho = fair_finish_ratio(view, rate, now, contention)
        # Jobs no GPU type can run go last.
        return math.inf if math.isinf(rho) else -rho


class ShockwaveScheduler(RigidScheduler):
    """FTF-aware inelastic scheduler with an efficiency/makespan tier."""

    name = "shockwave"
    reverse = True

    def serving_key(self, view, rate, now, contention):
        rho = fair_finish_ratio(view, rate, now, contention)
        if math.isinf(rho):
            return (-1, 0.0)
        if rho > UNFAIR_THRESHOLD:
            return (1, rho)  # at-risk tier: most unfair first
        remaining = view.remaining_fraction * view.job.target_samples
        return (0, -remaining)  # fair tier: shortest remaining work first
