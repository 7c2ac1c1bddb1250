"""Node health inference and the quarantine state machine (gray defense).

Binary faults announce themselves: a crashed node disappears from the
cluster view and the scheduler simply plans around it.  Gray failures do
not — a node whose executor silently degrades (:class:`~repro.sim.faults.
GrayFailureModel`) or whose launches flap (:class:`~repro.sim.faults.
PlacementFailureModel`) still *looks* healthy in every input the policies
consume.  This module infers per-node health from two signals the engine
already produces:

* the goodput ledger's realized-vs-estimated ratio per round — a gray node
  delivers less goodput than the estimate its (masked) telemetry justified,
  so an EMA of the ratio over the node's resident jobs drifts down;
* placement-failure history — consecutive failed launches on a node.

and drives each node through a state machine::

    healthy --low ratio--> probation --lower ratio / flaps--> quarantined
       ^                      |  ^                                |
       '----ratio recovers----'  '------backoff expires----------'
                                        (after ``DRAIN_AFTER`` trips:
                                         drained, terminal)

Quarantined nodes are excluded from the cluster view handed to policies
for a capped exponential backoff window (``QUARANTINE_BASE_S *
2^(trips-1)``), then reinstated on probation; a node that keeps tripping
is drained for operator attention.  Probation nodes stay schedulable but
their GPU type's goodputs are discounted via
:func:`repro.core.matrix.apply_health_discount` so the policy prefers clean
hardware at equal goodput.  Both exits are reachable in bounded time, which
is the quarantine-liveness property the test suite pins.  The thresholds
are module constants; :class:`HealthConfig` holds the one knob,
``min_samples``.

Backoff jitter here and in the engine's placement retries is derived from
a hash (:func:`deterministic_jitter`), not an RNG stream, so a checkpoint
resume replays identical delays without extra RNG state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from repro.cluster.cluster import Cluster
from repro.obs.tracer import NULL_TRACER, Tracer

HEALTHY = "healthy"
PROBATION = "probation"
QUARANTINED = "quarantined"
DRAINED = "drained"
STATES = (HEALTHY, PROBATION, QUARANTINED, DRAINED)

#: EMA weight of the newest realized/estimated ratio sample.
EMA_ALPHA = 0.3
#: EMA below this puts a healthy node on probation (discounted).
PROBATION_RATIO = 0.7
#: EMA below this quarantines the node outright.  It sits well below
#: honest estimation error but well above a typical gray slowdown (x0.35).
QUARANTINE_RATIO = 0.45
#: EMA at or above this returns a probation node to healthy.
RECOVER_RATIO = 0.85
#: consecutive failed launches that quarantine a node by themselves.
PLACEMENT_FAILURE_THRESHOLD = 3
#: quarantine backoff: ``QUARANTINE_BASE_S * 2^(trips-1)`` seconds, capped.
QUARANTINE_BASE_S = 900.0
QUARANTINE_CAP_S = 7200.0
#: quarantine trips after which the node is drained (terminal).
DRAIN_AFTER = 3
#: goodput multiplier for GPU types with probation nodes (per-node
#: fraction-weighted; see :meth:`HealthTracker.type_discounts`).
PROBATION_DISCOUNT = 0.7
#: placement-retry backoff (see :func:`placement_backoff`).
BACKOFF_BASE_S = 30.0
BACKOFF_CAP_S = 600.0
BACKOFF_JITTER = 0.25


def deterministic_jitter(token: str, amplitude: float) -> float:
    """Jitter in ``[0, amplitude]`` derived from a hash, not an RNG.

    Backoff jitter must replay identically across a checkpoint resume
    without adding RNG state to the checkpoint, so it hashes a stable
    token (e.g. job id + attempt number) instead of drawing from a
    generator."""
    if amplitude <= 0:
        return 0.0
    return amplitude * (zlib.crc32(token.encode()) % 1000) / 999.0


def placement_backoff(attempt: int, token: str) -> float:
    """Delay before retrying a failed placement: capped exponential with
    deterministic jitter.  ``attempt`` counts from 1."""
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
    return base * (1.0 + deterministic_jitter(f"{token}:{attempt}",
                                              BACKOFF_JITTER))


@dataclass
class HealthConfig:
    """The health layer's one knob; its thresholds are module constants.

    Bootstrap-mode estimates are noisy early in a job's life, so a node is
    only judged once ``min_samples`` realized/estimated ratios have folded
    into its EMA."""

    #: ratio samples required before the score is trusted at all.
    min_samples: int = 6

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be positive")


@dataclass(frozen=True)
class HealthEvent:
    """One state transition (or eviction) the tracker emitted."""

    kind: str  # probation | quarantine | reinstate | recover | drain | evict
    time: float
    node_id: int
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind} node {self.node_id}"
        return f"{text} ({self.detail})" if self.detail else text

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "time": self.time,
                "node_id": self.node_id, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> HealthEvent:
        return cls(kind=data["kind"], time=data["time"],
                   node_id=data["node_id"], detail=data.get("detail", ""))


@dataclass
class NodeHealth:
    """Per-node inference state."""

    node_id: int
    state: str = HEALTHY
    #: EMA of realized/estimated goodput ratio (1.0 = delivering exactly
    #: what the estimate promised).
    score: float = 1.0
    #: ratio samples folded into the EMA since the last (re)instatement.
    samples: int = 0
    consecutive_placement_failures: int = 0
    quarantine_trips: int = 0
    quarantined_until: float = 0.0


class HealthTracker:
    """Scores nodes from goodput/placement evidence and runs the state
    machine.  Owned by the engine (one per run, checkpointed with it),
    which consults it each round to filter the scheduler's cluster view
    and discount probation hardware."""

    # Observability is (re)injected by the engine after construction and
    # after every checkpoint restore; tracers are never pickled.
    tracer: Tracer = NULL_TRACER
    metrics: Any = None

    def __init__(self, config: HealthConfig | None = None):
        self.config = config or HealthConfig()
        self._nodes: dict[int, NodeHealth] = {}
        #: events emitted since the last :meth:`drain_events` call.  The
        #: engine drains every round, so this is empty at checkpoint
        #: boundaries and resume equivalence is unaffected.
        self._pending: list[HealthEvent] = []
        #: the last filtered view :meth:`healthy_view` built, as ``(input
        #: cluster, excluded ids, view)``; not pickled (:meth:`__getstate__`).
        self._view: tuple[Cluster, frozenset[int], Cluster] | None = None

    def __getstate__(self) -> dict:
        """Everything but the saved view, so a tracker pickles to the same
        bytes whether or not it has filtered a cluster."""
        state = self.__dict__.copy()
        del state["_view"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view = None

    # -- evidence ------------------------------------------------------------

    def node(self, node_id: int) -> NodeHealth:
        health = self._nodes.get(node_id)
        if health is None:
            health = self._nodes[node_id] = NodeHealth(node_id=node_id)
        return health

    def record_goodput(self, node_ids, estimated: float, realized: float,
                       now: float) -> None:
        """Fold one job-round's realized-vs-estimated goodput into every
        node the job ran on.  A gray node drags the ratio down for its
        residents; clean nodes hover near 1.0."""
        if estimated <= 0:
            return
        ratio = min(max(realized / estimated, 0.0), 2.0)
        for node_id in sorted(set(node_ids)):
            health = self.node(node_id)
            if health.state in (QUARANTINED, DRAINED):
                continue
            if health.samples == 0:
                health.score = ratio
            else:
                health.score = (1 - EMA_ALPHA) * health.score \
                    + EMA_ALPHA * ratio
            health.samples += 1

    def record_placement_failure(self, job_id: str, node_id: int,
                                 now: float) -> None:
        self.node(node_id).consecutive_placement_failures += 1

    def record_placement_success(self, node_ids) -> None:
        for node_id in set(node_ids):
            health = self._nodes.get(node_id)
            if health is not None:
                health.consecutive_placement_failures = 0

    def note_eviction(self, job_id: str, node_ids, now: float) -> None:
        """Record that the engine drained a job off newly-excluded nodes."""
        excluded = self.excluded_nodes()
        for node_id in sorted(set(node_ids)):
            if node_id in excluded:
                self._emit("evict", now, node_id,
                           f"job {job_id} evicted from "
                           f"{self._nodes[node_id].state} node")

    # -- state machine -------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance every node one round: expire quarantine backoffs and
        apply the evidence-based transitions."""
        for node_id in sorted(self._nodes):
            health = self._nodes[node_id]
            if health.state == DRAINED:
                continue
            if health.state == QUARANTINED:
                if now >= health.quarantined_until:
                    health.state = PROBATION
                    health.score = 1.0
                    health.samples = 0
                    health.consecutive_placement_failures = 0
                    self._emit("reinstate", now, node_id,
                               f"backoff expired after trip "
                               f"{health.quarantine_trips}; on probation")
                continue
            if health.consecutive_placement_failures >= \
                    PLACEMENT_FAILURE_THRESHOLD:
                self._quarantine(health, now,
                                 f"{health.consecutive_placement_failures} "
                                 "consecutive placement failures")
                continue
            if health.samples < self.config.min_samples:
                continue
            if health.score < QUARANTINE_RATIO:
                self._quarantine(health, now,
                                 "realized/estimated goodput ratio "
                                 f"{health.score:.2f} < "
                                 f"{QUARANTINE_RATIO:.2f}")
            elif health.score < PROBATION_RATIO \
                    and health.state == HEALTHY:
                health.state = PROBATION
                self._emit("probation", now, node_id,
                           f"goodput ratio {health.score:.2f} < "
                           f"{PROBATION_RATIO:.2f}; "
                           "utilities discounted")
            elif health.score >= RECOVER_RATIO \
                    and health.state == PROBATION:
                health.state = HEALTHY
                self._emit("recover", now, node_id,
                           f"goodput ratio {health.score:.2f} recovered")

    def _quarantine(self, health: NodeHealth, now: float,
                    reason: str) -> None:
        if health.quarantine_trips >= DRAIN_AFTER:
            health.state = DRAINED
            self._emit("drain", now, health.node_id,
                       f"{reason}; exceeded {DRAIN_AFTER} quarantine "
                       "trips — drained for operator attention")
            return
        health.quarantine_trips += 1
        duration = min(QUARANTINE_CAP_S,
                       QUARANTINE_BASE_S
                       * (2 ** (health.quarantine_trips - 1)))
        health.state = QUARANTINED
        health.quarantined_until = now + duration
        health.consecutive_placement_failures = 0
        health.samples = 0
        self._emit("quarantine", now, health.node_id,
                   f"{reason}; quarantined {duration:.0f}s "
                   f"(trip {health.quarantine_trips})")

    # -- views ---------------------------------------------------------------

    def excluded_nodes(self) -> frozenset[int]:
        """Nodes the scheduler must not place on."""
        return frozenset(node_id for node_id, health in self._nodes.items()
                         if health.state in (QUARANTINED, DRAINED))

    def healthy_view(self, cluster: Cluster, now: float) -> Cluster:
        """``cluster`` minus quarantined/drained nodes.

        Returns ``cluster`` itself when nothing it holds is excluded, and
        the same filtered object while ``cluster`` and the excluded set
        stay unchanged, so schedulers that cache per-cluster state (placers
        key on object identity) keep their caches across rounds.  If
        exclusion would leave zero nodes, the best excluded node is
        pressed back into service on probation, with a ``reinstate`` event
        at ``now`` — an empty cluster deadlocks every job, which is worse
        than one sick node.  The view is saved under the excluded set after
        the rescue, so a rescue is never answered from a saved view."""
        excluded = self.excluded_nodes()
        if not excluded:
            return cluster
        saved = self._view
        if saved is not None and saved[0] is cluster \
                and saved[1] == excluded:
            return saved[2]
        keep = tuple(n for n in cluster.nodes if n.node_id not in excluded)
        if not keep:
            candidates = [self._nodes[n.node_id] for n in cluster.nodes
                          if self._nodes.get(n.node_id) is not None]
            quarantined = [h for h in candidates if h.state == QUARANTINED]
            pool = quarantined or [h for h in candidates
                                   if h.state == DRAINED]
            if not pool:
                return cluster
            best = max(pool, key=lambda h: (h.score, -h.node_id))
            best.state = PROBATION
            best.score = 1.0
            best.samples = 0
            best.consecutive_placement_failures = 0
            self._emit("reinstate", now, best.node_id,
                       "emergency reinstatement: every node was excluded")
            excluded = self.excluded_nodes()
            keep = tuple(n for n in cluster.nodes
                         if n.node_id not in excluded)
        view = cluster if len(keep) == len(cluster.nodes) \
            else Cluster(nodes=keep)
        self._view = (cluster, excluded, view)
        return view

    def type_discounts(self, cluster: Cluster) -> dict[str, float]:
        """Goodput multiplier per GPU type, weighted by the fraction of
        that type's (schedulable) nodes on probation.  ``{}`` when no node
        is on probation, so the healthy path stays bit-identical."""
        probation = {node_id for node_id, health in self._nodes.items()
                     if health.state == PROBATION}
        if not probation:
            return {}
        totals: dict[str, int] = {}
        flagged: dict[str, int] = {}
        for node in cluster.nodes:
            totals[node.gpu_type] = totals.get(node.gpu_type, 0) + 1
            if node.node_id in probation:
                flagged[node.gpu_type] = flagged.get(node.gpu_type, 0) + 1
        return {gpu_type: 1.0 - (1.0 - PROBATION_DISCOUNT) * count
                / totals[gpu_type]
                for gpu_type, count in flagged.items()}

    # -- reporting -----------------------------------------------------------

    def state_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(STATES, 0)
        for health in self._nodes.values():
            counts[health.state] += 1
        return counts

    def drain_events(self) -> list[HealthEvent]:
        """Return and clear events emitted since the last call."""
        events = self._pending
        self._pending = []
        return events

    def _emit(self, kind: str, now: float, node_id: int,
              detail: str) -> None:
        self._pending.append(HealthEvent(kind=kind, time=now,
                                         node_id=node_id, detail=detail))
        self.tracer.instant("health_event", kind=kind, node=node_id,
                            detail=detail)
        if self.metrics is not None:
            self.metrics.counter(f"health.{kind}").inc()
