"""Scheduler interface shared by Sia and all baselines.

A scheduler sees, each round, one :class:`JobView` per active job — the
job's static description plus its runtime state and its Goodput Estimator —
and returns a :class:`RoundPlan`: concrete per-job allocations for the next
round.  Each scheduler owns its placement logic (Sia follows the rules of
Section 3.1 in :func:`repro.core.placement.place`; Pollux packs virtual
nodes; Gavel packs per-type), so the simulator only validates and applies
the plan.
"""

from __future__ import annotations

import abc
import contextlib
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation, Configuration
from repro.jobs.job import Job
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, PLAN_PHASES, Tracer
from repro.perf.estimator import WORK, PlanMemo

__all__ = ["JobView", "RoundPlan", "Scheduler", "PLAN_PHASES",
           "carry_forward_plan", "pack_gpus", "pack_gpus_on_type"]


@dataclass
class JobView:
    """Everything a scheduler may know about one active job."""

    job: Job
    #: the job's goodput estimator (JobPerfEstimator or HybridPerfEstimator).
    estimator: object
    current_config: Configuration | None
    #: seconds since the job first received resources (0 if never ran).
    age: float
    num_restarts: int
    #: effective samples completed so far.
    progress: float
    #: simulation timestamp when the job first received resources.
    first_start: float | None = None

    @property
    def job_id(self) -> str:
        return self.job.job_id

    @property
    def remaining_fraction(self) -> float:
        """Fraction of the job's work still to do, in [0, 1]."""
        done = min(self.progress, self.job.target_samples)
        return 1.0 - done / self.job.target_samples

    @property
    def is_running(self) -> bool:
        return self.current_config is not None


@dataclass
class RoundPlan:
    """One round's concrete resource plan."""

    #: job id -> allocation (jobs absent receive no resources this round).
    allocations: dict[str, Allocation] = field(default_factory=dict)
    #: solver objective, when meaningful.
    objective: float | None = None
    #: solver backend that produced the plan ('' when not reported;
    #: 'carry' marks a carried-forward fallback plan).
    backend: str = ""
    #: True when the plan came from a degraded mode (fallback rung, solver
    #: budget overrun, or carry-forward).
    degraded: bool = False
    #: job id -> the goodput the scheduler believed the chosen allocation
    #: would deliver — the number its optimization ran on.  Feeds the
    #: goodput ledger (:mod:`repro.obs.ledger`); jobs without resources
    #: (and carried-forward plans) have no entry.
    estimates: dict[str, float] = field(default_factory=dict)

    def validate(self, cluster: Cluster) -> None:
        """Raise if the plan over-subscribes any node or mixes types."""
        used: dict[int, int] = {}
        sizes = {n.node_id: n.num_gpus for n in cluster.nodes}
        types = {n.node_id: n.gpu_type for n in cluster.nodes}
        for job_id, alloc in self.allocations.items():
            for node_id, count in alloc.gpus_per_node:
                if node_id not in sizes:
                    raise ValueError(f"{job_id}: unknown node {node_id}")
                if types[node_id] != alloc.gpu_type:
                    raise ValueError(
                        f"{job_id}: node {node_id} is {types[node_id]}, "
                        f"allocation says {alloc.gpu_type}")
                used[node_id] = used.get(node_id, 0) + count
        for node_id, count in used.items():
            if count > sizes[node_id]:
                raise ValueError(
                    f"node {node_id} over-subscribed: {count} > {sizes[node_id]}")


def carry_forward_plan(previous: dict[str, Allocation], cluster: Cluster,
                       views: list[JobView]) -> RoundPlan:
    """Last-resort plan: keep the previous round's allocations that are
    still feasible on the (possibly shrunken) cluster.

    An allocation survives only if the job is still active and every node
    it touches exists, has the right GPU type, and is not over-subscribed
    once earlier survivors are counted.  The result always passes
    ``RoundPlan.validate``.
    """
    nodes = {n.node_id: n for n in cluster.nodes}
    active_ids = {v.job_id for v in views}
    used: dict[int, int] = {}
    allocations: dict[str, Allocation] = {}
    for job_id in sorted(previous):
        alloc = previous[job_id]
        if job_id not in active_ids or alloc is None:
            continue
        feasible = True
        for node_id, count in alloc.gpus_per_node:
            node = nodes.get(node_id)
            if node is None or node.gpu_type != alloc.gpu_type \
                    or used.get(node_id, 0) + count > node.num_gpus:
                feasible = False
                break
        if not feasible:
            continue
        for node_id, count in alloc.gpus_per_node:
            used[node_id] = used.get(node_id, 0) + count
        allocations[job_id] = alloc
    return RoundPlan(allocations=allocations, backend="carry", degraded=True)


class Scheduler(abc.ABC):
    """Base class for round-based cluster schedulers."""

    #: human-readable scheduler name for results tables.
    name: str = "base"
    #: observability tracer; the simulator injects the run's tracer here.
    #: The NULL_TRACER default keeps standalone ``decide()`` calls no-op.
    tracer: Tracer = NULL_TRACER
    #: shared metrics registry; the simulator injects the run's registry so
    #: any counter a scheduler registers reaches the per-round snapshots.
    #: None keeps standalone ``decide()`` calls metric-free.
    metrics: MetricsRegistry | None = None
    #: seconds between scheduling rounds (60 for Sia/Pollux, 360 for the
    #: rigid baselines — Section 4.3).
    round_duration: float = 60.0
    #: rigid baselines assume the (job, GPU type) throughput matrix is known
    #: (Section 4.3 gives Gavel measured throughputs), so their estimators
    #: run in Oracle mode regardless of the experiment's profiling mode.
    oracle_estimators: bool = False
    #: per-GPU-type goodput discounts from the health layer (probation
    #: nodes); injected each round by the engine and consumed by policies
    #: that support it (Sia).  ``None`` (or ``{}``) means no discount —
    #: the default for every standalone use.
    health_discounts: dict[str, float] | None = None

    @abc.abstractmethod
    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        """Choose allocations for the next round.

        The engine opens the ``plan`` span and times the call; ``decide``
        opens the :data:`PLAN_PHASES` child spans on ``self.tracer``."""

    @property
    def plan_memo(self) -> PlanMemo:
        """This scheduler's goodput plan memo, which every round's goodput
        pass reads and fills (:func:`repro.perf.estimator.plan_requests`),
        so a plan rated in one round answers the estimators that ask for
        it with the same inputs in later rounds.  It is not pickled
        (:meth:`__getstate__`): a resumed run starts with an empty memo."""
        return self.__dict__.setdefault("_plan_memo", {})

    def __getstate__(self) -> dict | None:
        """The instance state without the plan memo.  ``None`` for an
        otherwise empty state, as the default pickle writes it."""
        state = dict(self.__dict__)
        state.pop("_plan_memo", None)
        return state or None

    @contextlib.contextmanager
    def goodput_eval(self, **attrs):
        """The round's ``goodput_eval`` span.  When the tracer records, the
        span is annotated on exit with the estimator work done inside it
        (:data:`repro.perf.estimator.WORK`): cache ``hits`` and
        ``misses``, the misses the plan memo answered (``shared``), lazy
        ``refits``, and the refits that ``moved`` a stored fit."""
        with self.tracer.span("goodput_eval", **attrs) as span:
            if not self.tracer.enabled:
                yield span
                return
            before = list(WORK.values())
            yield span
            span.annotate(**{name: count - start for (name, count), start
                             in zip(WORK.items(), before)})

    def record_estimates(self, views: list[JobView],
                         plan: RoundPlan) -> RoundPlan:
        """Decision-observability hook: stamp ``plan.estimates`` with the
        goodput each allocated job's estimator predicts for its chosen
        allocation — the number the scheduler's optimization ran on.

        Every ``decide()`` calls this before returning; schedulers whose
        optimization already produced per-job estimates (Sia's ILP) pre-fill
        ``plan.estimates`` and this hook only covers the gaps.  Estimator
        failures are skipped rather than raised — observability must never
        change scheduling outcomes.
        """
        for view in views:
            allocation = plan.allocations.get(view.job_id)
            if allocation is None or view.job_id in plan.estimates:
                continue
            try:
                value = float(view.estimator.goodput(
                    allocation.configuration()))
            except Exception:
                continue
            if value > 0:
                plan.estimates[view.job_id] = value
        return plan

    def make_estimator(self, job: Job, cluster: Cluster,
                       profiling_mode) -> object:
        """Create the goodput estimator this scheduler uses for ``job``.

        The default builds the Sia-style per-GPU-type estimator (hybrid jobs
        get their exact pre-profiled estimator); Pollux overrides this with
        its type-blind estimator.
        """
        from repro.core.types import ProfilingMode
        from repro.jobs.hybrid import HybridPerfEstimator
        from repro.jobs.inference import (BatchInferenceEstimator,
                                          LatencySLOEstimator)
        from repro.perf.estimator import JobPerfEstimator

        if job.is_hybrid:
            return HybridPerfEstimator(job.model_name, job.hybrid)
        mode = ProfilingMode.ORACLE if self.oracle_estimators else profiling_mode
        if job.workload == "batch_inference":
            return BatchInferenceEstimator(job.model_name, job.constraints(),
                                           cluster.gpu_types, mode)
        if job.workload == "latency_inference":
            return LatencySLOEstimator(job.model_name, job.latency_slo,
                                       cluster.gpu_types)
        return JobPerfEstimator(job.model_name, job.constraints(),
                                cluster.gpu_types, mode)

    def describe(self) -> str:
        return f"{self.name} (round={self.round_duration:.0f}s)"


def pack_gpus(nodes, count: int, occupancy: dict[int, int],
              preferred=()) -> dict[int, int] | None:
    """Pack ``count`` GPUs onto ``nodes`` for baselines that do not follow
    Sia's placement rules: ``preferred`` nodes first, then the most free
    GPUs first (lowest id on ties), spanning nodes as needed.  Returns
    ``{node_id: GPUs taken}`` and adds it to ``occupancy`` (node id -> GPUs
    already used), or None, leaving ``occupancy`` alone, when the nodes do
    not have ``count`` free GPUs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ordered = sorted(
        nodes,
        key=lambda n: (n.node_id not in preferred,
                       -(n.num_gpus - occupancy.get(n.node_id, 0)),
                       n.node_id))
    taken: dict[int, int] = {}
    remaining = count
    for node in ordered:
        free = node.num_gpus - occupancy.get(node.node_id, 0)
        if free <= 0:
            continue
        grab = min(free, remaining)
        taken[node.node_id] = grab
        remaining -= grab
        if remaining == 0:
            break
    if remaining > 0:
        return None
    for node_id, grab in taken.items():
        occupancy[node_id] = occupancy.get(node_id, 0) + grab
    return taken


def pack_gpus_on_type(cluster: Cluster, gpu_type: str, count: int,
                      occupancy: dict[int, int],
                      preferred_nodes: tuple[int, ...] = ()) -> Allocation | None:
    """:func:`pack_gpus` over the nodes of one GPU type, as an allocation."""
    taken = pack_gpus(cluster.nodes_of_type(gpu_type), count, occupancy,
                      preferred_nodes)
    return None if taken is None else Allocation.build(gpu_type, taken)
