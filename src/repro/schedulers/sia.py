"""Sia scheduler: the core ILP policy plus the Section 3.1 Placer."""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.placement import Placer
from repro.core.policy import SiaPolicy, SiaPolicyParams
from repro.core.types import Allocation
from repro.schedulers.base import JobView, RoundPlan, Scheduler


class SiaScheduler(Scheduler):
    """Heterogeneity-aware, goodput-optimized scheduler (the paper's system).

    Defaults follow Section 4.3: 60 s rounds, p = -0.5, lambda = 1.1.
    """

    name = "sia"

    def __init__(self, params: SiaPolicyParams | None = None,
                 round_duration: float = 60.0):
        self.policy = SiaPolicy(params)
        self.round_duration = round_duration
        self._placer: Placer | None = None

    @property
    def params(self) -> SiaPolicyParams:
        return self.policy.params

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        # The policy emits the bootstrap/goodput_eval/solve phase spans; the
        # Placer runs under the placement span.
        self.policy.tracer = self.tracer
        self.policy.metrics = self.metrics
        self.policy.health_discounts = self.health_discounts
        if self._placer is None or self._placer.cluster is not cluster:
            self._placer = Placer(cluster)
        # ``previous`` doubles as the solver warm start: the policy
        # re-keys it onto this round's (row, col) indices.
        decision = self.policy.decide(views, cluster, now, previous=previous)
        pinned = {v.job_id for v in views
                  if not v.job.preemptible and v.is_running}
        with self.tracer.span("placement"):
            placement = self._placer.place(decision.assignments, previous,
                                           pinned=pinned)
        plan = RoundPlan(allocations=placement.allocations,
                         objective=decision.objective,
                         backend=decision.backend,
                         degraded=decision.degraded,
                         estimates={jid: est for jid, est
                                    in decision.estimates.items()
                                    if jid in placement.allocations})
        # The ILP's own numbers win; the base hook fills any job the
        # Placer allocated without a policy estimate.
        self.record_estimates(views, plan)
        return plan
