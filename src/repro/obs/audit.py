"""Decision audit trail: classified allocation-change events.

The simulator diffs each job's allocation between consecutive rounds and
records one :class:`AllocationEvent` per change, answering *what the
scheduler decided* for every job: when it was admitted, scaled, migrated
across GPU types, preempted, resumed, restarted after a fault, and
finished.  Together with the goodput ledger (:mod:`repro.obs.ledger`) this
is the decision-level counterpart to the phase-timing spans.

Events are plain data — this module stays dependency-free like the rest of
``repro.obs``; allocations are passed in as ``(gpu_type, num_gpus,
node_ids)`` tuples so the classifier also works on records loaded from
JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

#: event kinds, in rough lifecycle order.
ADMIT = "admit"                            #: first resources ever
SCALE_UP = "scale_up"                      #: same GPU type, more GPUs
SCALE_DOWN = "scale_down"                  #: same GPU type, fewer GPUs
MIGRATE = "migrate"                        #: moved (GPU type and/or nodes)
PREEMPT = "preempt"                        #: resources taken away
RESUME = "resume"                          #: resources back after a preempt
RESTART_AFTER_FAULT = "restart_after_fault"  #: resources back after a fault
FINISH = "finish"                          #: job completed

EVENT_KINDS = (ADMIT, SCALE_UP, SCALE_DOWN, MIGRATE, PREEMPT, RESUME,
               RESTART_AFTER_FAULT, FINISH)

#: why a change happened: the scheduler chose it, or a fault forced it.
CAUSE_SCHEDULER = "scheduler"
CAUSE_FAULT = "fault"


@dataclass(frozen=True)
class AllocationEvent:
    """One classified allocation change for one job."""

    kind: str
    time: float
    job_id: str
    #: allocation before the change ('' / 0 when the job held nothing).
    from_gpu_type: str = ""
    from_gpus: int = 0
    #: allocation after the change ('' / 0 when the job holds nothing).
    to_gpu_type: str = ""
    to_gpus: int = 0
    #: scheduling round the change took effect in (-1 when unknown).
    round_index: int = -1
    cause: str = CAUSE_SCHEDULER
    detail: str = ""

    def describe(self) -> str:
        """One-line human-readable rendering (used by ``repro explain``)."""
        before = (f"{self.from_gpus}x {self.from_gpu_type}"
                  if self.from_gpu_type else "-")
        after = (f"{self.to_gpus}x {self.to_gpu_type}"
                 if self.to_gpu_type else "-")
        text = f"{self.kind}: {before} -> {after}"
        if self.cause != CAUSE_SCHEDULER:
            text += f" [{self.cause}]"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind, "time": self.time, "job_id": self.job_id,
            "round_index": self.round_index,
        }
        if self.from_gpu_type:
            data["from"] = [self.from_gpu_type, self.from_gpus]
        if self.to_gpu_type:
            data["to"] = [self.to_gpu_type, self.to_gpus]
        if self.cause != CAUSE_SCHEDULER:
            data["cause"] = self.cause
        if self.detail:
            data["detail"] = self.detail
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "AllocationEvent":
        before = data.get("from") or ("", 0)
        after = data.get("to") or ("", 0)
        return AllocationEvent(
            kind=data["kind"], time=data["time"], job_id=data["job_id"],
            from_gpu_type=before[0], from_gpus=int(before[1]),
            to_gpu_type=after[0], to_gpus=int(after[1]),
            round_index=data.get("round_index", -1),
            cause=data.get("cause", CAUSE_SCHEDULER),
            detail=data.get("detail", ""))


def classify_change(job_id: str, time: float, *,
                    held: "tuple[str, int, tuple[int, ...]] | None",
                    new: "tuple[str, int, tuple[int, ...]] | None",
                    ran_before: bool, fault_hit: bool = False,
                    round_index: int = -1,
                    detail: str = "") -> AllocationEvent | None:
    """Classify one job's round-over-round allocation change.

    ``held``/``new`` are ``(gpu_type, num_gpus, node_ids)`` or None for the
    allocation at the start and end of the scheduling step.  ``ran_before``
    says whether the job ever held resources before this round;
    ``fault_hit`` says a fault evicted/crashed the job since it last ran
    (so regaining resources is a restart, not a scheduler decision).
    Returns None when nothing changed.
    """
    if new is None:
        if held is None:
            return None
        return AllocationEvent(
            kind=PREEMPT, time=time, job_id=job_id,
            from_gpu_type=held[0], from_gpus=held[1],
            round_index=round_index,
            cause=CAUSE_FAULT if fault_hit else CAUSE_SCHEDULER,
            detail=detail)
    if held is None:
        if not ran_before:
            kind = ADMIT
        elif fault_hit:
            kind = RESTART_AFTER_FAULT
        else:
            kind = RESUME
        return AllocationEvent(
            kind=kind, time=time, job_id=job_id,
            to_gpu_type=new[0], to_gpus=new[1], round_index=round_index,
            cause=CAUSE_FAULT if kind == RESTART_AFTER_FAULT
            else CAUSE_SCHEDULER,
            detail=detail)
    if fault_hit:
        # Crashed or evicted mid-round and holding resources again: the
        # change was forced, whatever shape it took.
        return AllocationEvent(
            kind=RESTART_AFTER_FAULT, time=time, job_id=job_id,
            from_gpu_type=held[0], from_gpus=held[1],
            to_gpu_type=new[0], to_gpus=new[1], round_index=round_index,
            cause=CAUSE_FAULT, detail=detail)
    if held[0] != new[0]:
        return AllocationEvent(
            kind=MIGRATE, time=time, job_id=job_id,
            from_gpu_type=held[0], from_gpus=held[1],
            to_gpu_type=new[0], to_gpus=new[1], round_index=round_index,
            detail=detail)
    if held[1] != new[1]:
        kind = SCALE_UP if new[1] > held[1] else SCALE_DOWN
        return AllocationEvent(
            kind=kind, time=time, job_id=job_id,
            from_gpu_type=held[0], from_gpus=held[1],
            to_gpu_type=new[0], to_gpus=new[1], round_index=round_index,
            detail=detail)
    if held[2] != new[2]:
        return AllocationEvent(
            kind=MIGRATE, time=time, job_id=job_id,
            from_gpu_type=held[0], from_gpus=held[1],
            to_gpu_type=new[0], to_gpus=new[1], round_index=round_index,
            detail=detail or "same-type node move")
    return None


# -- aggregation ---------------------------------------------------------------

def events_for_job(events: Iterable[AllocationEvent],
                   job_id: str) -> list[AllocationEvent]:
    return [e for e in events if e.job_id == job_id]


def event_counts(events: Iterable[AllocationEvent]) -> dict[str, int]:
    """Events by kind (keys restricted to kinds that occurred)."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def migration_flows(events: Iterable[AllocationEvent],
                    ) -> dict[tuple[str, str], int]:
    """(from GPU type, to GPU type) -> count over MIGRATE events — the
    per-GPU-type migration flow the Gavel comparison is judged by."""
    flows: dict[tuple[str, str], int] = {}
    for event in events:
        if event.kind != MIGRATE:
            continue
        key = (event.from_gpu_type, event.to_gpu_type)
        flows[key] = flows.get(key, 0) + 1
    return flows


def allocation_persistence(rounds: Sequence[Any]) -> float | None:
    """Fraction of job -> allocation pairs unchanged round-to-round.

    Over every consecutive round pair, a job allocated in the earlier
    round *persists* when the later round gives it the identical
    ``(gpu_type, num_gpus)`` allocation — the configuration, not the
    nodes.  Jobs that finished or were preempted count as churn; jobs
    admitted later enter the denominator once allocated.  Returns None
    when fewer than two rounds carry allocations (nothing to compare).

    One minus this ratio is the run's allocation churn;
    ``repro.analysis.report`` surfaces it per run.
    """
    kept = 0
    total = 0
    for earlier, later in zip(rounds, rounds[1:]):
        for job_id, alloc in earlier.allocations.items():
            total += 1
            after = later.allocations.get(job_id)
            # tuple() both sides: JSON round trips turn tuples into lists.
            if after is not None and tuple(after) == tuple(alloc):
                kept += 1
    if total == 0:
        return None
    return kept / total
