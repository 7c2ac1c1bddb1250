"""Cross-run decision diff: align two futures of one run, round by round.

The counterfactual replay engine (:mod:`repro.analysis.replay`) forks a
recorded run at round N and plays out an alternate future; this module
holds the *artifact* that comparison produces — :class:`RunDiff` — and the
pure alignment machinery that builds its pieces from two
``SimulationResult``-like objects (live or JSON-loaded, like everything in
``repro.obs``):

* per-round allocation deltas, each classified with the
  :mod:`repro.obs.audit` event taxonomy applied across runs (base -> fork);
* divergence-point detection: the first round the two plans differ, with a
  reason derived from what else differed there (fault draws, plan backend,
  or a pure scheduling decision);
* ledger alignment: per-round realized/estimated goodput sums from two
  :class:`~repro.obs.ledger.GoodputLedger`\\ s on a shared round axis;
* fault-recovery attribution from audit events (time from fault-caused
  resource loss to the matching restart).

Everything serializes via ``to_dict``/``from_dict`` so :mod:`repro.io` can
round-trip ``diff.json`` artifacts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import audit
from repro.obs.ledger import GoodputLedger


def _classify(job_id: str, time: float, base: "tuple[str, int] | None",
              fork: "tuple[str, int] | None") -> str:
    """Label a cross-run allocation difference with the audit taxonomy.

    The base run's allocation plays the role of "held", the fork's of
    "new": a job running in the fork but idle in the base classifies as
    ``resume``, the reverse as ``preempt``, type changes as ``migrate``,
    size changes as ``scale_up``/``scale_down``.
    """
    held = (base[0], base[1], ()) if base is not None else None
    new = (fork[0], fork[1], ()) if fork is not None else None
    event = audit.classify_change(job_id, time, held=held, new=new,
                                  ran_before=True)
    return event.kind if event is not None else ""


@dataclass(frozen=True)
class AllocDelta:
    """One job whose allocation differs between the two futures, in one
    round: ``base``/``fork`` are ``(gpu_type, num_gpus)`` or None."""

    job_id: str
    base: "tuple[str, int] | None" = None
    fork: "tuple[str, int] | None" = None
    #: audit-taxonomy label of the base -> fork change ('' when identical).
    kind: str = ""

    def describe(self) -> str:
        def _fmt(alloc: "tuple[str, int] | None") -> str:
            return f"{alloc[1]}x {alloc[0]}" if alloc else "-"
        return (f"{self.job_id}: {_fmt(self.base)} -> {_fmt(self.fork)}"
                + (f" [{self.kind}]" if self.kind else ""))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"job_id": self.job_id}
        if self.base is not None:
            data["base"] = list(self.base)
        if self.fork is not None:
            data["fork"] = list(self.fork)
        if self.kind:
            data["kind"] = self.kind
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "AllocDelta":
        base = data.get("base")
        fork = data.get("fork")
        return AllocDelta(
            job_id=data["job_id"],
            base=(base[0], int(base[1])) if base else None,
            fork=(fork[0], int(fork[1])) if fork else None,
            kind=data.get("kind", ""))


@dataclass(frozen=True)
class RoundDelta:
    """One round where the two futures differ."""

    round_index: int
    time: float
    changes: tuple[AllocDelta, ...] = ()
    #: 'base' / 'fork' when only one future has this round (different run
    #: lengths); '' when both have it and the allocations differ.
    only_in: str = ""

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "round_index": self.round_index, "time": self.time,
            "changes": [c.to_dict() for c in self.changes],
        }
        if self.only_in:
            data["only_in"] = self.only_in
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RoundDelta":
        return RoundDelta(
            round_index=data["round_index"], time=data["time"],
            changes=tuple(AllocDelta.from_dict(c)
                          for c in data.get("changes", [])),
            only_in=data.get("only_in", ""))


@dataclass(frozen=True)
class DivergencePoint:
    """The first round the two futures planned differently, and why."""

    round_index: int
    time: float
    #: jobs whose allocations differed in that round.
    jobs: tuple[str, ...] = ()
    reason: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"round_index": self.round_index, "time": self.time,
                "jobs": list(self.jobs), "reason": self.reason}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "DivergencePoint":
        return DivergencePoint(
            round_index=data["round_index"], time=data["time"],
            jobs=tuple(data.get("jobs", [])),
            reason=data.get("reason", ""))


@dataclass(frozen=True)
class MetricDelta:
    """One scalar outcome, both sides."""

    name: str
    base: float
    fork: float

    @property
    def delta(self) -> float:
        return self.fork - self.base

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "base": self.base, "fork": self.fork}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "MetricDelta":
        return MetricDelta(name=data["name"], base=data["base"],
                           fork=data["fork"])


@dataclass
class RunDiff:
    """Everything a counterfactual fork changed, relative to its base run.

    Produced by :func:`repro.analysis.replay.replay`; serialized by
    :func:`repro.io.save_run_diff`; rendered by
    :func:`repro.obs.export.run_diff_markdown` and consumed by
    ``repro explain --counterfactual``.
    """

    #: round the fork branched at (rounds < fork_round are shared history).
    fork_round: int
    #: overrides applied to the fork, by name (empty = identity fork).
    overrides: dict[str, str] = field(default_factory=dict)
    base_scheduler: str = ""
    fork_scheduler: str = ""
    base_rounds: int = 0
    fork_rounds: int = 0
    #: strict equivalence-oracle mismatches (the PR 5 resume-equivalence
    #: diff, wall-clock metrics excluded).  Empty = bit-identical futures.
    mismatches: list[str] = field(default_factory=list)
    divergence: DivergencePoint | None = None
    round_deltas: list[RoundDelta] = field(default_factory=list)
    metrics: list[MetricDelta] = field(default_factory=list)
    #: per-job outcome deltas: job id -> {base_jct, fork_jct,
    #: base_queue_wait, fork_queue_wait} in seconds (None = job missing on
    #: that side, e.g. admitted in only one future).
    job_deltas: dict[str, dict[str, float | None]] = field(
        default_factory=dict)

    @property
    def identical(self) -> bool:
        """True when the fork reproduced the base run bit-identically
        (modulo wall-clock telemetry) — the zero-override guarantee."""
        return not self.mismatches

    def job_changes(self, job_id: str) -> dict[int, AllocDelta]:
        """round index -> this job's cross-run allocation delta (rounds the
        two futures agree on are absent) — the overlay ``repro explain
        --counterfactual`` paints onto the base timeline."""
        changes: dict[int, AllocDelta] = {}
        for rnd in self.round_deltas:
            for change in rnd.changes:
                if change.job_id == job_id:
                    changes[rnd.round_index] = change
        return changes

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "fork_round": self.fork_round,
            "overrides": dict(self.overrides),
            "base_scheduler": self.base_scheduler,
            "fork_scheduler": self.fork_scheduler,
            "base_rounds": self.base_rounds,
            "fork_rounds": self.fork_rounds,
            "identical": self.identical,
            "mismatches": list(self.mismatches),
            "round_deltas": [r.to_dict() for r in self.round_deltas],
            "metrics": [m.to_dict() for m in self.metrics],
            "job_deltas": {jid: dict(vals)
                           for jid, vals in self.job_deltas.items()},
        }
        if self.divergence is not None:
            data["divergence"] = self.divergence.to_dict()
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunDiff":
        divergence = data.get("divergence")
        return RunDiff(
            fork_round=data["fork_round"],
            overrides=dict(data.get("overrides", {})),
            base_scheduler=data.get("base_scheduler", ""),
            fork_scheduler=data.get("fork_scheduler", ""),
            base_rounds=data.get("base_rounds", 0),
            fork_rounds=data.get("fork_rounds", 0),
            mismatches=list(data.get("mismatches", [])),
            divergence=DivergencePoint.from_dict(divergence)
            if divergence else None,
            round_deltas=[RoundDelta.from_dict(r)
                          for r in data.get("round_deltas", [])],
            metrics=[MetricDelta.from_dict(m)
                     for m in data.get("metrics", [])],
            job_deltas={jid: dict(vals)
                        for jid, vals in
                        data.get("job_deltas", {}).items()})


# -- alignment -----------------------------------------------------------------

def _round_changes(base_rnd: Any, fork_rnd: Any,
                   ) -> tuple[AllocDelta, ...]:
    """Per-job allocation deltas between two aligned rounds."""
    changes = []
    for job_id in sorted(set(base_rnd.allocations)
                         | set(fork_rnd.allocations)):
        base = base_rnd.allocations.get(job_id)
        fork = fork_rnd.allocations.get(job_id)
        if base == fork:
            continue
        changes.append(AllocDelta(
            job_id=job_id, base=base, fork=fork,
            kind=_classify(job_id, base_rnd.time, base, fork)))
    return tuple(changes)


def _one_sided(rnd: Any, side: str, index: int) -> RoundDelta:
    """A round present in only one future: every allocation is a delta."""
    changes = []
    for job_id in sorted(rnd.allocations):
        alloc = rnd.allocations[job_id]
        if side == "base":
            changes.append(AllocDelta(job_id=job_id, base=alloc, fork=None,
                                      kind=_classify(job_id, rnd.time,
                                                     alloc, None)))
        else:
            changes.append(AllocDelta(job_id=job_id, base=None, fork=alloc,
                                      kind=_classify(job_id, rnd.time,
                                                     None, alloc)))
    return RoundDelta(round_index=index, time=rnd.time,
                      changes=tuple(changes),
                      only_in=side)


def _divergence_reason(base_rnd: Any, fork_rnd: Any,
                       changes: tuple[AllocDelta, ...]) -> str:
    """Why the first differing round differed, from what else changed."""
    base_faults = [(e.kind, e.target) for e in base_rnd.fault_events]
    fork_faults = [(e.kind, e.target) for e in fork_rnd.fault_events]
    if base_faults != fork_faults:
        return (f"fault draws differ (base: {base_faults or 'none'}, "
                f"fork: {fork_faults or 'none'})")
    if base_rnd.backend != fork_rnd.backend:
        return (f"plan backend differs "
                f"(base: {base_rnd.backend or 'none'}, "
                f"fork: {fork_rnd.backend or 'none'})")
    kinds = sorted({c.kind for c in changes if c.kind})
    return (f"scheduler chose different allocations for "
            f"{len(changes)} job(s)"
            + (f" ({', '.join(kinds)})" if kinds else ""))


def compare_runs(base: Any, fork: Any,
                 ) -> tuple[list[RoundDelta], DivergencePoint | None]:
    """Align two ``SimulationResult``-like futures round by round.

    Returns every differing round plus the divergence point (None when the
    allocation logs are identical).  Rounds past the shorter run count as
    one-sided deltas, so a fork that finishes earlier or later is fully
    accounted for.
    """
    deltas: list[RoundDelta] = []
    divergence: DivergencePoint | None = None
    common = min(len(base.rounds), len(fork.rounds))
    for index in range(common):
        base_rnd, fork_rnd = base.rounds[index], fork.rounds[index]
        changes = _round_changes(base_rnd, fork_rnd)
        if not changes:
            continue
        deltas.append(RoundDelta(round_index=index, time=base_rnd.time,
                                 changes=changes))
        if divergence is None:
            divergence = DivergencePoint(
                round_index=index, time=base_rnd.time,
                jobs=tuple(c.job_id for c in changes),
                reason=_divergence_reason(base_rnd, fork_rnd, changes))
    for index in range(common, len(base.rounds)):
        deltas.append(_one_sided(base.rounds[index], "base", index))
    for index in range(common, len(fork.rounds)):
        deltas.append(_one_sided(fork.rounds[index], "fork", index))
    if divergence is None and len(base.rounds) != len(fork.rounds):
        side = base if len(base.rounds) > len(fork.rounds) else fork
        rnd = side.rounds[common]
        divergence = DivergencePoint(
            round_index=common, time=rnd.time,
            jobs=tuple(sorted(rnd.allocations)),
            reason=(f"futures end at different rounds "
                    f"(base: {len(base.rounds)}, fork: "
                    f"{len(fork.rounds)})"))
    return deltas, divergence


def aligned_ledger_deltas(base: GoodputLedger, fork: GoodputLedger,
                          ) -> list[tuple[int, float, float]]:
    """Per-round realized-goodput sums of two ledgers on a shared round
    axis: ``(round_index, base_sum, fork_sum)`` for every round either
    ledger covers (0.0 where one side has no entries)."""
    axis = sorted(set(base.rounds()) | set(fork.rounds()))
    out = []
    for index in axis:
        base_sum = sum(e.realized_goodput or 0.0
                       for e in base.for_round(index))
        fork_sum = sum(e.realized_goodput or 0.0
                       for e in fork.for_round(index))
        out.append((index, base_sum, fork_sum))
    return out


def fault_recovery_seconds(events: Iterable[audit.AllocationEvent]) -> float:
    """Total seconds jobs spent between losing resources to a fault and
    getting them back (summed over all fault-caused outages in an event
    stream).  Same-round crash-and-restart events contribute zero."""
    lost_at: dict[str, float] = {}
    total = 0.0
    for event in events:
        if event.kind == audit.PREEMPT and event.cause == audit.CAUSE_FAULT:
            lost_at.setdefault(event.job_id, event.time)
        elif event.kind == audit.RESTART_AFTER_FAULT:
            start = lost_at.pop(event.job_id, None)
            if start is not None:
                total += max(0.0, event.time - start)
    return total
