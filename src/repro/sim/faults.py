"""Pluggable fault injection (Section 3.5 robustness, generalized).

The simulator used to hard-code one fault model — whole-node crashes — in
``Simulator._apply_failures``.  This module turns fault injection into a
composable subsystem: a :class:`FaultModel` samples faults each round into a
shared :class:`FaultContext`, and the engine applies the aggregate (evicting
jobs on down nodes, rolling crashed jobs back to their epoch checkpoint,
re-charging failed restores, slowing stragglers through the executor's
ground-truth rates).

Models are independent and composable: pass any list via
``simulate(..., fault_models=[...])``.  Each model owns a seeded RNG, so a
run is deterministic given (config seed, model seeds); a model constructed
without an explicit seed is bound to a seed derived from the simulation
seed and its position in the list.

Built-in models:

* :class:`NodeCrashModel` — whole nodes fail and stay down for
  :data:`REPAIR_TIME_S`; jobs touching them are evicted to their last
  epoch checkpoint.  This is the legacy ``node_failure_rate`` behaviour,
  refactored out of the engine bit-for-bit.
* :class:`StragglerModel` — nodes degrade to a fraction of nominal speed
  for a window.  Synchronous data-parallel training runs at the pace of the
  slowest worker, so a job's speed factor is the minimum over its nodes.
* :class:`JobCrashModel` — transient job-level failures (OOM, NCCL hiccup,
  bad host process) that roll the job back to its last epoch checkpoint and
  charge a restart, without taking any node down.
* :class:`CheckpointRestoreFaultModel` — a restore attempt fails partway
  and the job pays the full restart delay again.

Gray failures (everything above is binary and fully observable; real
clusters also fail *gray* — see :mod:`repro.core.health` for the defense):

* :class:`GrayFailureModel` — a node's executor silently degrades: jobs on
  it run slower, but the reported iteration times are masked back to
  nominal, so the degradation is invisible to the estimator and only shows
  up as realized-vs-estimated goodput divergence.
* :class:`PlacementFailureModel` — an applied allocation fails to start on
  its assigned GPUs with a per-node probability (gang-launch flap); the
  engine retries with a jittered capped backoff.
* :class:`TelemetryCorruptionModel` — throughput observations are dropped,
  duplicated, scaled, or staled before reaching the estimator.

Node crashes, stragglers and gray failures are one sampler,
:class:`NodeEpisodeModel`, that differ only in the event text and in how a
live episode lands on the :class:`FaultContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation
from repro.sim.telemetry import FaultEvent

#: seconds a crashed node stays down before it is repaired.
REPAIR_TIME_S = 1800.0
#: factor a scaled telemetry report is multiplied or divided by.
TELEMETRY_SCALE_FACTOR = 8.0


def fault_model_seed(seed: int, idx: int) -> int:
    """The seed bound to the ``idx``-th fault model of a run seeded with
    ``seed`` when the model brings no seed of its own."""
    return seed + 1009 + 31 * idx


def _hits(rng: np.random.Generator, n: int, prob: float) -> list[int]:
    """The indices, ascending, of ``n`` Bernoulli(``prob``) trials that
    hit, drawn as one block: ``rng.random(n)`` takes the values, and
    leaves the state, of ``n`` calls to ``rng.random()``.  No draw when
    ``n`` is 0."""
    if n == 0:
        return []
    return np.flatnonzero(rng.random(n) < prob).tolist()


def slowest_node(speeds: dict[int, float],
                 allocation: Allocation | None) -> float:
    """Speed factor of an allocation: gated by its slowest node in
    ``speeds`` (node id -> factor; absent means 1.0)."""
    if not speeds or allocation is None:
        return 1.0
    return min((speeds.get(nid, 1.0) for nid in allocation.node_ids),
               default=1.0)


@dataclass
class FaultContext:
    """One round's aggregate fault state, mutated in turn by each model.

    Models *add* to the aggregate fields; the engine applies them after
    every model has sampled.  ``running`` maps job id -> current allocation
    for jobs holding GPUs when the round was planned; ``restoring`` lists
    running jobs still paying a checkpoint-restore delay.
    """

    now: float
    dt: float
    cluster: Cluster
    running: dict[str, Allocation] = field(default_factory=dict)
    restoring: frozenset[str] = frozenset()
    #: node id -> simulation time at which the node comes back up.
    down_until: dict[int, float] = field(default_factory=dict)
    #: node id -> multiplicative speed factor in (0, 1]; absent means 1.0.
    node_speed: dict[int, float] = field(default_factory=dict)
    #: node id -> *silent* speed factor in (0, 1]; absent means 1.0.  Unlike
    #: ``node_speed`` (stragglers, visible to telemetry), gray slowdowns are
    #: applied to the executor's ground truth but masked from the
    #: observations the estimator sees, and they follow the round's *new*
    #: allocation so migrating off a sick node takes effect immediately.
    gray_speed: dict[int, float] = field(default_factory=dict)
    #: jobs that suffer a transient crash this round.
    crashed_jobs: set[str] = field(default_factory=set)
    events: list[FaultEvent] = field(default_factory=list)

    def mark_down(self, node_id: int, until: float) -> None:
        """Merge a node outage (a node down twice stays down longest)."""
        current = self.down_until.get(node_id)
        if current is None or until > current:
            self.down_until[node_id] = until

    def slow_node(self, node_id: int, factor: float) -> None:
        """Merge a slowdown; overlapping slowdowns keep the worst factor."""
        current = self.node_speed.get(node_id, 1.0)
        self.node_speed[node_id] = min(current, factor)

    def gray_slow_node(self, node_id: int, factor: float) -> None:
        """Merge a silent slowdown; overlapping ones keep the worst."""
        current = self.gray_speed.get(node_id, 1.0)
        self.gray_speed[node_id] = min(current, factor)


@dataclass(frozen=True)
class PlacementFailure:
    """One failed gang launch: ``job_id``'s new allocation did not come up
    because ``node_id`` flapped.  The engine charges the retry backoff and
    builds the telemetry event; the model only attributes the failure."""

    job_id: str
    node_id: int


class FaultModel:
    """Base class: a seeded, per-round fault sampler.

    Subclasses override :meth:`sample` (and optionally :meth:`revive`).
    ``seed=None`` defers seeding to the simulator, which binds a seed
    derived from the run's seed and the model's position in the list.
    """

    #: tag used in telemetry events and repr.
    kind: str = "fault"

    def __init__(self, seed: int | None = None):
        self.seed = seed
        self._rng: np.random.Generator | None = None
        if seed is not None:
            self.bind(seed)

    def bind(self, seed: int) -> None:
        """(Re)seed the model; called by the simulator before the run."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.reset()

    def reset(self) -> None:
        """Clear mutable state (outage windows etc.); override as needed."""

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise RuntimeError(f"{type(self).__name__} was never seeded; "
                               "pass seed= or let the simulator bind one")
        return self._rng

    def sample(self, ctx: FaultContext) -> None:
        """Sample this round's faults into ``ctx`` (override)."""

    def sample_restore_failures(self, restoring: list[str],
                                now: float) -> list[FaultEvent]:
        """Called after allocations are applied, with the (sorted) ids of
        jobs paying a checkpoint-restore delay this round.  Return one
        event per failed restore attempt; the engine charges the job the
        full restart delay again (override)."""
        return []

    def sample_placement_failures(
            self, attempts: list[tuple[str, Allocation]],
            now: float) -> list[PlacementFailure]:
        """Called during the apply step with this round's launch attempts —
        ``(job_id, allocation)`` pairs whose allocation changed to a new
        non-``None`` placement, sorted by job id.  Return one
        :class:`PlacementFailure` per launch that flaps; the engine holds
        the grant, charges a jittered capped backoff on top of the restore
        delay, and feeds the node's health score (override)."""
        return []

    def corrupt_observation(self, job_id: str, obs,  # type: ignore[no-untyped-def]
                            now: float):
        """Telemetry tap: called for every throughput observation on its
        way to the estimator.  Return ``(delivered, events)`` where
        ``delivered`` is the list of observations that actually arrive
        (empty = dropped, two copies = duplicated, mutated = corrupted)
        and ``events`` lists one :class:`FaultEvent` per corruption
        (override).  The default passes the observation through."""
        return [obs], []

    def revive(self, node_id: int) -> None:
        """Forget any outage for ``node_id`` (degenerate all-down rescue)."""

    def forget_job(self, job_id: str) -> None:
        """``job_id`` finished and will never run again: drop any state
        kept for it, so checkpoints stop carrying it (override)."""

    @staticmethod
    def _per_round_prob(rate_per_hour: float, dt: float) -> float:
        return rate_per_hour * dt / 3600.0


def observation_taps(models: list[FaultModel]) -> list[FaultModel]:
    """The ``models`` whose telemetry tap can change a report: those whose
    :meth:`~FaultModel.corrupt_observation` is not the base class's
    pass-through, overridden on their class or set on the instance."""
    return [model for model in models
            if getattr(model.corrupt_observation, "__func__", None)
            is not FaultModel.corrupt_observation]


class NodeEpisodeModel(FaultModel):
    """Fixed-length per-node episodes: the one sampler behind node
    crashes, stragglers and gray failures.

    Each round, every node not in an episode starts one with probability
    ``rate * dt / 3600`` (one RNG draw per such node, in cluster order,
    taken as one block; no draws when that is 0) that lasts ``duration``
    seconds.  Subclasses supply only the event text (:meth:`detail`) and
    how a live episode lands on the round's :class:`FaultContext`
    (:meth:`apply`).
    """

    def __init__(self, rate: float, duration: float, seed: int | None):
        if rate < 0:
            raise ValueError(f"{self.kind} rate must be non-negative")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.rate = rate
        self.duration = duration
        self._until: dict[int, float] = {}
        super().__init__(seed)

    def reset(self) -> None:
        self._until = {}

    def detail(self, until: float) -> str:
        """Event text for an episode that ends at ``until`` (override)."""

    def apply(self, ctx: FaultContext, node_id: int, until: float) -> None:
        """Land one live episode on ``ctx`` (override)."""

    def sample(self, ctx: FaultContext) -> None:
        self._until = {nid: t for nid, t in self._until.items()
                       if t > ctx.now}
        prob = self._per_round_prob(self.rate, ctx.dt)
        eligible = [node.node_id for node in ctx.cluster.nodes
                    if node.node_id not in self._until] if prob > 0 else []
        for k in _hits(self.rng, len(eligible), prob):
            node_id = eligible[k]
            until = ctx.now + self.duration
            self._until[node_id] = until
            ctx.events.append(FaultEvent(
                kind=self.kind, time=ctx.now, target=f"node:{node_id}",
                detail=self.detail(until)))
        for node_id, until in self._until.items():
            self.apply(ctx, node_id, until)


class NodeCrashModel(NodeEpisodeModel):
    """Whole-node crash-and-repair (the paper's Section 3.5 fault model).

    A crashed node stays down :data:`REPAIR_TIME_S` seconds.  Behaviour
    (including RNG stream consumption) matches the legacy engine
    implementation exactly, so runs driven by ``node_failure_rate`` are
    bit-identical to the seed repo.
    """

    kind = "node_crash"

    def __init__(self, rate: float = 0.1, seed: int | None = None):
        super().__init__(rate, REPAIR_TIME_S, seed)

    def revive(self, node_id: int) -> None:
        self._until.pop(node_id, None)

    def detail(self, until: float) -> str:
        return f"down until t={until:.0f}s"

    def apply(self, ctx: FaultContext, node_id: int, until: float) -> None:
        ctx.mark_down(node_id, until)


class StragglerModel(NodeEpisodeModel):
    """Nodes degrade to ``slowdown`` of nominal speed for a window.

    The slowdown is felt through the executor's ground-truth rates: jobs on
    a straggling node run (and observe) proportionally slower iteration
    times, so estimators see the degradation too.  No jobs are evicted.
    """

    kind = "straggler"

    def __init__(self, rate: float = 0.2, slowdown: float = 0.5,
                 duration: float = 1800.0, seed: int | None = None):
        if not 0 < slowdown <= 1:
            raise ValueError("slowdown must be in (0, 1]")
        self.slowdown = slowdown
        super().__init__(rate, duration, seed)

    def detail(self, until: float) -> str:
        return f"speed x{self.slowdown:.2f} for {self.duration:.0f}s"

    def apply(self, ctx: FaultContext, node_id: int, until: float) -> None:
        ctx.slow_node(node_id, self.slowdown)


class JobCrashModel(FaultModel):
    """Transient job failures: roll back to the last epoch checkpoint and
    pay the restart delay, without taking a node down."""

    kind = "job_crash"

    def __init__(self, rate: float = 0.2, seed: int | None = None):
        if rate < 0:
            raise ValueError("job crash rate must be non-negative")
        self.rate = rate
        super().__init__(seed)

    def sample(self, ctx: FaultContext) -> None:
        prob = self._per_round_prob(self.rate, ctx.dt)
        if prob <= 0:
            return
        running = sorted(ctx.running)
        for k in _hits(self.rng, len(running), prob):
            job_id = running[k]
            ctx.crashed_jobs.add(job_id)
            ctx.events.append(FaultEvent(
                kind=self.kind, time=ctx.now, target=f"job:{job_id}",
                detail="rolled back to epoch checkpoint"))


class CheckpointRestoreFaultModel(FaultModel):
    """Checkpoint restores that fail partway.

    Each round a job spends paying a restore delay, the attempt fails with
    probability ``failure_prob`` and the job is charged the full restart
    delay again on top of what remains.  With ``failure_prob < 1`` the job
    eventually restores (geometric number of attempts)."""

    kind = "restore_failure"

    def __init__(self, failure_prob: float = 0.1, seed: int | None = None):
        if not 0 <= failure_prob < 1:
            raise ValueError("failure_prob must be in [0, 1)")
        self.failure_prob = failure_prob
        super().__init__(seed)

    def sample_restore_failures(self, restoring: list[str],
                                now: float) -> list[FaultEvent]:
        if self.failure_prob <= 0:
            return []
        return [FaultEvent(kind=self.kind, time=now,
                           target=f"job:{restoring[k]}",
                           detail="restore failed; paying restart delay again")
                for k in _hits(self.rng, len(restoring), self.failure_prob)]


class GrayFailureModel(NodeEpisodeModel):
    """Silent executor degradation: the node lies about being healthy.

    Each up node enters a gray episode with probability ``rate * dt / 3600``
    per round and runs at ``slowdown`` of nominal speed for ``duration``
    seconds.  Unlike :class:`StragglerModel`, the slowdown is *masked from
    telemetry*: the engine slows the executor's ground truth but rescales
    the reported iteration times back to nominal, so the estimator keeps
    believing the node is fine.  The only footprint is realized goodput
    falling below the scheduler's estimate — the divergence
    :class:`repro.core.health.HealthTracker` scores nodes by.
    """

    kind = "gray_failure"

    def __init__(self, rate: float = 0.2, slowdown: float = 0.35,
                 duration: float = 7200.0, seed: int | None = None):
        if not 0 < slowdown <= 1:
            raise ValueError("slowdown must be in (0, 1]")
        self.slowdown = slowdown
        super().__init__(rate, duration, seed)

    def detail(self, until: float) -> str:
        return (f"silent slowdown x{self.slowdown:.2f} "
                f"for {self.duration:.0f}s (masked from telemetry)")

    def apply(self, ctx: FaultContext, node_id: int, until: float) -> None:
        ctx.gray_slow_node(node_id, self.slowdown)


class PlacementFailureModel(FaultModel):
    """Gang launches that flap: a changed allocation fails to start.

    Every node of every launch attempt is drawn independently with
    probability ``failure_prob`` (a fixed number of draws per attempt, so
    the RNG stream does not depend on outcomes); the first failing node is
    blamed.  The engine keeps the grant, charges a jittered capped backoff
    on top of the restore delay, and feeds the health tracker.
    """

    kind = "placement_failure"

    def __init__(self, failure_prob: float = 0.1, seed: int | None = None):
        if not 0 <= failure_prob < 1:
            raise ValueError("failure_prob must be in [0, 1)")
        self.failure_prob = failure_prob
        super().__init__(seed)

    def sample_placement_failures(
            self, attempts: list[tuple[str, Allocation]],
            now: float) -> list[PlacementFailure]:
        if self.failure_prob <= 0:
            return []
        failures: list[PlacementFailure] = []
        for job_id, allocation in attempts:
            node_ids = sorted(set(allocation.node_ids))
            hits = _hits(self.rng, len(node_ids), self.failure_prob)
            if hits:
                failures.append(PlacementFailure(job_id=job_id,
                                                 node_id=node_ids[hits[0]]))
        return failures


class TelemetryCorruptionModel(FaultModel):
    """Throughput reports mangled on the way to the estimator.

    With probability ``rate`` per observation, the report is (uniformly)
    dropped, duplicated, scaled by :data:`TELEMETRY_SCALE_FACTOR` or its
    inverse (occasionally corrupted to NaN outright), or replaced by a
    stale replay of the job's previous report.  Scaled/NaN reports are what the
    estimator's MAD/finite defense must catch; drops and duplicates are
    survivable noise; stale replays look plausible and slip through —
    which is fine, they carry old but truthful information.
    """

    kind = "telemetry"

    def __init__(self, rate: float = 0.1, seed: int | None = None):
        if not 0 <= rate <= 1:
            raise ValueError("corruption rate must be in [0, 1]")
        self.rate = rate
        self._last: dict[str, object] = {}
        super().__init__(seed)

    def reset(self) -> None:
        self._last = {}

    def forget_job(self, job_id: str) -> None:
        self._last.pop(job_id, None)

    def corrupt_observation(self, job_id: str, obs, now: float):
        last = self._last.get(job_id)
        self._last[job_id] = obs
        if self.rate <= 0 or self.rng.random() >= self.rate:
            return [obs], []

        def event(detail: str) -> FaultEvent:
            return FaultEvent(kind=self.kind, time=now,
                              target=f"job:{job_id}", detail=detail)

        mode = self.rng.random()
        if mode < 0.25:
            return [], [event("observation dropped")]
        if mode < 0.5:
            return [obs, obs], [event("observation duplicated")]
        if mode < 0.75:
            direction = self.rng.random()
            if direction < 0.1:
                return ([replace(obs, iter_time=float("nan"))],
                        [event("iter_time corrupted to nan")])
            factor = (TELEMETRY_SCALE_FACTOR if direction < 0.55
                      else 1.0 / TELEMETRY_SCALE_FACTOR)
            return ([replace(obs, iter_time=obs.iter_time * factor)],
                    [event(f"iter_time scaled x{factor:g}")])
        if last is None:
            # Nothing to replay yet; the report goes through untouched.
            return [obs], []
        return [last], [event("stale observation replayed")]
