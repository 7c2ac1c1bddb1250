"""Per-job goodput ledger: estimated vs realized goodput, round by round.

Sia's policy runs on *bootstrapped* throughput models that start wrong and
converge as profiling observations arrive (Section 4.2), so the central
observability question is: how far off was the goodput estimate the ILP
optimized, compared with what the executor actually delivered?  The ledger
answers it per (round, job): one :class:`LedgerEntry` for every allocation
the simulator applied, carrying the scheduler's estimate and the realized
rates.

The ledger is derived from the per-round records (``RoundRecord.estimates``
/ ``realized`` / ``throughputs``), so it works identically on a live
:class:`~repro.sim.telemetry.SimulationResult` and on one loaded from JSON
by :mod:`repro.io` — which is what lets ``repro explain`` reconstruct a
decision timeline from a saved run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class LedgerEntry:
    """One (round, job) line: what was promised vs what was delivered."""

    round_index: int
    time: float
    job_id: str
    gpu_type: str
    num_gpus: int
    #: goodput the policy believed this allocation would deliver when it
    #: chose it (None when the scheduler did not report an estimate, e.g.
    #: a carried-forward round).
    estimated_goodput: float | None = None
    #: goodput the executor actually delivered (0.0 for a round fully
    #: spent in checkpoint-restore; None when the round never ran).
    realized_goodput: float | None = None
    #: realized raw throughput, samples/s (None when the round never ran).
    realized_throughput: float | None = None

    @property
    def relative_error(self) -> float | None:
        """|estimated - realized| / realized, or None when undefined
        (missing estimate, or a restore round with zero realized rate)."""
        if self.estimated_goodput is None or self.realized_goodput is None:
            return None
        if self.realized_goodput <= 0:
            return None
        return (abs(self.estimated_goodput - self.realized_goodput)
                / self.realized_goodput)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "round_index": self.round_index, "time": self.time,
            "job_id": self.job_id, "gpu_type": self.gpu_type,
            "num_gpus": self.num_gpus,
        }
        if self.estimated_goodput is not None:
            data["estimated_goodput"] = self.estimated_goodput
        if self.realized_goodput is not None:
            data["realized_goodput"] = self.realized_goodput
        if self.realized_throughput is not None:
            data["realized_throughput"] = self.realized_throughput
        return data

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "LedgerEntry":
        return LedgerEntry(
            round_index=data["round_index"], time=data["time"],
            job_id=data["job_id"], gpu_type=data["gpu_type"],
            num_gpus=int(data["num_gpus"]),
            estimated_goodput=data.get("estimated_goodput"),
            realized_goodput=data.get("realized_goodput"),
            realized_throughput=data.get("realized_throughput"))


def round_entries(rnd: Any, round_index: int) -> list[LedgerEntry]:
    """Ledger entries of one :class:`RoundRecord`, in the canonical sorted
    job order, as :meth:`GoodputLedger.from_result` builds them.  The live
    JSONL streamer (:mod:`repro.obs.stream`) writes the same entries from
    the record directly, so a ledger streamed round by round loads back
    identical to one rebuilt post hoc."""
    return [LedgerEntry(
        round_index=round_index, time=rnd.time, job_id=job_id,
        gpu_type=rnd.allocations[job_id][0],
        num_gpus=rnd.allocations[job_id][1],
        estimated_goodput=rnd.estimates.get(job_id),
        realized_goodput=rnd.realized.get(job_id),
        realized_throughput=rnd.throughputs.get(job_id))
        for job_id in sorted(rnd.allocations)]


class GoodputLedger:
    """Every (round, job) allocation of one run, with derived series."""

    def __init__(self, entries: Sequence[LedgerEntry] = ()):
        self.entries = list(entries)
        self._by_job: dict[str, list[LedgerEntry]] | None = None
        #: number of entries covered by ``_by_job`` — an O(1) staleness
        #: check (entries are append-only in practice, so a length match
        #: means the memoized index is current).
        self._indexed_len = -1

    @classmethod
    def from_result(cls, result: Any) -> "GoodputLedger":
        """Build the ledger from a ``SimulationResult``-like object (live,
        or loaded from JSON; requires per-round records)."""
        entries: list[LedgerEntry] = []
        for idx, rnd in enumerate(result.rounds):
            entries.extend(round_entries(rnd, idx))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def job_ids(self) -> list[str]:
        return sorted({e.job_id for e in self.entries})

    def for_job(self, job_id: str) -> list[LedgerEntry]:
        return list(self._index().get(job_id, ()))

    def _index(self) -> dict[str, list[LedgerEntry]]:
        """The per-job index, rebuilt only when the entry count changed
        since it was last built (O(1) staleness check)."""
        by_job = self._by_job
        if by_job is None or self._indexed_len != len(self.entries):
            by_job = {}
            for entry in self.entries:
                by_job.setdefault(entry.job_id, []).append(entry)
            self._by_job = by_job
            self._indexed_len = len(self.entries)
        return by_job

    def rounds(self) -> list[int]:
        """Sorted distinct round indices with at least one entry — the
        alignment axis the cross-run diff (:mod:`repro.obs.diff`) walks."""
        return sorted({e.round_index for e in self.entries})

    def for_round(self, round_index: int) -> list[LedgerEntry]:
        """Entries of one round, in input order."""
        return [e for e in self.entries if e.round_index == round_index]

    # -- derived series --------------------------------------------------------

    def error_series(self, job_id: str) -> list[tuple[float, float]]:
        """(time, relative estimation error) per round the job ran — the
        per-job bootstrap-convergence curve.  Rounds with an undefined
        error (no estimate, or zero realized rate) are skipped."""
        series = []
        for entry in self.for_job(job_id):
            error = entry.relative_error
            if error is not None:
                series.append((entry.time, error))
        return series

    def convergence_medians(self, num_windows: int = 2) -> list[float]:
        """Median relative estimation error per *job-age window*.

        Every defined error is indexed by how many running rounds its job
        had completed at that point; the per-job indices are split into
        ``num_windows`` equal spans and each window's pooled median is
        returned.  A converging estimator (the bootstrap -> refined loop of
        Figure 3) shows a nonincreasing sequence; an oracle shows ~zeros.
        Windows with no data report NaN-free 0.0 only if genuinely empty —
        they are simply omitted from the comparison by callers.
        """
        if num_windows < 1:
            raise ValueError("num_windows must be >= 1")
        indexed: list[tuple[int, float]] = []
        max_age = 0
        for job_id in self.job_ids():
            age = 0
            for entry in self.for_job(job_id):
                error = entry.relative_error
                if error is not None:
                    indexed.append((age, error))
                    max_age = max(max_age, age)
                age += 1
        if not indexed:
            return []
        span = (max_age + 1) / num_windows
        windows: list[list[float]] = [[] for _ in range(num_windows)]
        for age, error in indexed:
            windows[min(int(age / span), num_windows - 1)].append(error)
        return [statistics.median(w) for w in windows if w]

    def median_error(self) -> float | None:
        """Pooled median relative estimation error over the whole run."""
        errors = [e.relative_error for e in self.entries
                  if e.relative_error is not None]
        return statistics.median(errors) if errors else None


def queue_wait_by_job(result: Any) -> dict[str, float]:
    """Seconds each job spent active but holding no GPUs (queue-wait
    attribution): each round adds its length, up to the next round or the
    run's end, to the jobs it recorded as queued (``RoundRecord.queued``).
    Jobs that never waited report 0.0."""
    waits = {record.job_id: 0.0 for record in result.jobs}
    rounds = result.rounds
    for i, rnd in enumerate(rounds):
        if i + 1 < len(rounds):
            dt = rounds[i + 1].time - rnd.time
        else:
            dt = max(result.end_time - rnd.time, 0.0)
        for job_id in rnd.queued:
            waits[job_id] += dt
    return waits
