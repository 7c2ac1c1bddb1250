"""Round-level invariant auditing for the simulation engine.

The simulator's correctness rests on a handful of structural properties
that every round must satisfy no matter which scheduler, fault mix, or
degradation path produced it.  :class:`InvariantChecker` verifies them
after each round, over the engine's real state (runtimes + the just-built
:class:`~repro.sim.telemetry.RoundRecord`):

* **capacity** — every runtime's allocation fits the round's cluster view
  once the others are booked (:meth:`~repro.cluster.cluster.Cluster.book`):
  no node over-subscribed, no node of another GPU type;
* **down-node** — no allocation touches a node absent from this round's
  surviving cluster view (i.e. a node a fault model took down);
* **state-machine** — jobs move ``pending -> active -> finished`` only: a
  finished job never reappears, and every FINISH audit event matches a job
  that actually left the active set this round;
* **progress** — per-job progress is monotone except for jobs a fault
  rolled back to their epoch checkpoint this round;
* **ledger** — the round record agrees with the runtimes: its
  ``allocations`` are the ``(type, count)`` of every runtime holding GPUs
  (the tallies ``running_jobs`` and ``gpus_used`` derive from them),
  realized goodputs cover exactly the allocated jobs and are non-negative,
  and estimates refer to active jobs;
* **quarantine** — no allocation touches a node the health layer has
  quarantined or drained this round (gray-failure defense).

The checker raises :class:`InvariantError` on the first violation, so a
run that completes held every invariant in every round.  The checker's
per-job tracking state is part of the engine checkpoint, so auditing
resumes seamlessly across a crash/restore boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NoReturn

from repro.cluster.cluster import UNKNOWN_NODE, Cluster
from repro.obs import audit

if TYPE_CHECKING:
    from repro.sim.telemetry import RoundRecord

#: accepted ``SimulatorConfig.invariants`` values.
MODES = ("off", "strict")

#: progress comparisons tolerate float noise up to this many samples.
_PROGRESS_EPS = 1e-6


class InvariantError(RuntimeError):
    """An invariant violation (simulation state is inconsistent)."""


class InvariantChecker:
    """Audits engine state after every round; see the module docstring.

    The checker carries per-job progress/state tracking across rounds, so
    it must live exactly as long as the run — the engine checkpoints it
    alongside the rest of the simulation state.
    """

    def __init__(self) -> None:
        #: job id -> last seen progress (samples).
        self._progress: dict[str, float] = {}
        #: job ids that have finished; they must never run again.
        self._finished: set[str] = set()

    # -- entry point -----------------------------------------------------------

    def check_round(self, *, round_index: int, cluster_view: Cluster,
                    record: "RoundRecord", runtimes: Iterable,
                    fault_hit: set[str], done_ids: list[str],
                    quarantined: frozenset[int] = frozenset()) -> None:
        """Audit one completed round.

        ``runtimes`` iterates every runtime the round touched — still-active
        jobs plus the ones that finished this round (``done_ids``);
        ``cluster_view`` is the surviving-node view the round was planned
        over; ``fault_hit`` holds jobs a fault rolled back this round;
        ``quarantined`` lists nodes the health layer excluded this round.
        """
        runtimes = list(runtimes)
        self._check_capacity(round_index, cluster_view, runtimes)
        self._check_state_machine(round_index, record, runtimes, done_ids)
        self._check_progress(round_index, runtimes, fault_hit, done_ids)
        self._check_ledger(round_index, record, runtimes)
        self._check_quarantine(round_index, runtimes, quarantined)

    # -- individual invariants -------------------------------------------------

    def _check_capacity(self, round_index: int, cluster_view: Cluster,
                        runtimes: list) -> None:
        used: dict[int, int] = {}
        for rt in runtimes:
            if rt.allocation is None:
                continue
            why = cluster_view.book(rt.allocation, used)
            if why is not None:
                self._violate(round_index,
                              "down-node" if why.startswith(UNKNOWN_NODE)
                              else "capacity",
                              f"job {rt.job.job_id}: {why}")

    def _check_state_machine(self, round_index: int, record: "RoundRecord",
                             runtimes: list, done_ids: list[str]) -> None:
        for rt in runtimes:
            if rt.job.job_id in self._finished:
                self._violate(round_index, "state-machine",
                              f"finished job {rt.job.job_id} reappeared in "
                              "the active set")
        finish_events = {e.job_id for e in record.events
                         if e.kind == audit.FINISH}
        if finish_events != set(done_ids):
            self._violate(round_index, "state-machine",
                          f"FINISH events {sorted(finish_events)} do not "
                          f"match jobs that completed {sorted(done_ids)}")
        self._finished.update(done_ids)

    def _check_progress(self, round_index: int, runtimes: list,
                        fault_hit: set[str], done_ids: list[str]) -> None:
        for rt in runtimes:
            job_id = rt.job.job_id
            prev = self._progress.get(job_id)
            if prev is not None and rt.progress < prev - _PROGRESS_EPS \
                    and job_id not in fault_hit:
                self._violate(round_index, "progress",
                              f"job {job_id} progress went backwards "
                              f"({prev:.3f} -> {rt.progress:.3f}) without a "
                              "fault rollback")
            self._progress[job_id] = rt.progress
        for job_id in done_ids:  # finished jobs never report progress again
            self._progress.pop(job_id, None)

    def _check_ledger(self, round_index: int, record: "RoundRecord",
                      runtimes: list) -> None:
        held = {rt.job.job_id: (rt.allocation.gpu_type,
                                rt.allocation.num_gpus)
                for rt in runtimes if rt.allocation is not None}
        if held != record.allocations:
            self._violate(round_index, "ledger",
                          f"recorded allocations {record.allocations} "
                          f"disagree with the runtimes' {held}")
        if set(record.realized) != set(record.allocations):
            self._violate(round_index, "ledger",
                          "realized goodputs cover "
                          f"{sorted(record.realized)} but allocations cover "
                          f"{sorted(record.allocations)}")
        for job_id, value in record.realized.items():
            if value < 0:
                self._violate(round_index, "ledger",
                              f"job {job_id} realized negative goodput "
                              f"{value}")
        active_ids = {rt.job.job_id for rt in runtimes}
        stray = set(record.estimates) - active_ids
        if stray:
            self._violate(round_index, "ledger",
                          f"estimates recorded for non-active jobs "
                          f"{sorted(stray)}")

    def _check_quarantine(self, round_index: int, runtimes: list,
                          quarantined: frozenset[int]) -> None:
        if not quarantined:
            return
        for rt in runtimes:
            alloc = rt.allocation
            if alloc is None:
                continue
            held = set(alloc.node_ids) & set(quarantined)
            if held:
                self._violate(round_index, "quarantine",
                              f"job {rt.job.job_id} allocated on "
                              f"quarantined/drained node(s) {sorted(held)}")

    # -- violation sink --------------------------------------------------------

    def _violate(self, round_index: int, name: str, message: str) -> NoReturn:
        raise InvariantError(f"round {round_index}: [{name}] {message}")
