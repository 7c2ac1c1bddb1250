"""Chaos-replay harness: kill a run, resume it, prove nothing changed.

The checkpoint layer's contract is that a crash at *any* instant — between
rounds, or in the middle of writing a checkpoint file — costs at most a few
rounds of recomputation and never changes the simulation's outcome.  This
module turns that contract into an executable experiment:

1. run an uninterrupted **reference** simulation;
2. run a **victim** with checkpointing enabled and an injected
   :class:`SimulatedCrash` at a chosen (or seeded-random) round and stage
   (``round_end``, or inside the checkpoint write: ``pre_write`` /
   ``mid_write`` / ``pre_rename`` / ``post_rename``);
3. optionally corrupt the newest surviving checkpoint on disk (simulating
   a torn write the atomic rename could not prevent, e.g. media damage);
4. **resume** a fresh simulator from the checkpoint directory — the loader
   falls back past corrupted files — and run to completion;
5. diff the resumed result against the reference, field by field.

The diff demands exact equality of every stored simulation-state field:
round times, allocations, queues, realized/estimated goodputs,
throughputs, fault events, audit events, backends, job records and end
time (tallies such as GPU usage or censored counts derive from these).
Only wall-clock-derived telemetry is excluded —
``RoundRecord.solve_time`` and final-metric keys under ``solve_time_s`` /
``checkpoint`` — because host timing legitimately differs between the
processes on either side of a crash.

Used by ``repro chaos`` (CLI) and the CI chaos job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.sim import checkpoint as ckpt
from repro.sim.checkpoint import CheckpointConfig, CheckpointError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.telemetry import RoundRecord, SimulationResult

#: metric-key prefixes excluded from equivalence comparison: host timing
#: ("solve_time_s", "checkpoint") plus the live-telemetry plane ("slo.",
#: "stream.") — SLO burn-rate gauges and stream counters exist only on
#: observed runs and may derive from wall-clock series, yet must never
#: make an observed run diff against an unobserved one.
EXCLUDED_METRIC_PREFIXES = ("solve_time_s", "checkpoint", "slo.", "stream.")


class SimulatedCrash(RuntimeError):
    """Raised by the injected crash hook to kill a victim run."""


class CrashAt:
    """Crash hook that fires once at a given stage and round.

    For ``round_end`` it fires at the first round boundary >= ``round_index``;
    for write stages it fires during the first checkpoint write at or after
    that round (checkpoint cadence decides when writes happen).
    """

    def __init__(self, round_index: int, stage: str = "round_end"):
        if stage not in ckpt.CRASH_STAGES:
            raise ValueError(f"stage must be one of {ckpt.CRASH_STAGES}, "
                             f"got {stage!r}")
        self.round_index = round_index
        self.stage = stage
        self.fired = False

    def __call__(self, stage: str, round_index: int) -> None:
        if self.fired or stage != self.stage \
                or round_index < self.round_index:
            return
        self.fired = True
        raise SimulatedCrash(
            f"injected crash at stage={stage!r} round={round_index}")


def corrupt_checkpoint(path: str | Path) -> None:
    """Damage a checkpoint file in place (flips a payload byte), so reads
    fail checksum verification — simulates on-disk corruption."""
    path = Path(path)
    raw = bytearray(path.read_bytes())
    target = (len(raw) // 2) or (len(raw) - 1)
    raw[target] ^= 0xFF
    path.write_bytes(raw)


# -- equivalence diff ----------------------------------------------------------

def _filter_metrics(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items()
            if not k.startswith(EXCLUDED_METRIC_PREFIXES)}


# RoundRecord.alerts and .solve_time are deliberately absent: alerts fire
# only on SLO-observed runs (and may depend on wall-clock latency series),
# so comparing them would make observation itself a "divergence".
_ROUND_FIELDS = ("time", "allocations", "queued", "backend",
                 "fault_events", "estimates", "realized", "throughputs",
                 "events", "health_events")


def diff_rounds(ref: "RoundRecord", res: "RoundRecord",
                index: int) -> list[str]:
    """Field-level differences between two rounds (wall-clock excluded)."""
    out = []
    for name in _ROUND_FIELDS:
        a, b = getattr(ref, name), getattr(res, name)
        if a != b:
            out.append(f"round {index}: {name} differs ({a!r} != {b!r})")
    return out


def diff_results(reference: "SimulationResult", resumed: "SimulationResult",
                 ) -> list[str]:
    """All simulation-state differences between two results (empty =
    equivalent)."""
    out: list[str] = []
    if len(reference.rounds) != len(resumed.rounds):
        out.append(f"round count differs: {len(reference.rounds)} != "
                   f"{len(resumed.rounds)}")
    for i, (a, b) in enumerate(zip(reference.rounds, resumed.rounds)):
        out.extend(diff_rounds(a, b, i))
    for name in ("scheduler_name", "end_time"):
        a, b = getattr(reference, name), getattr(resumed, name)
        if a != b:
            out.append(f"{name} differs ({a!r} != {b!r})")
    ref_jobs = {j.job_id: j for j in reference.jobs}
    res_jobs = {j.job_id: j for j in resumed.jobs}
    if set(ref_jobs) != set(res_jobs):
        out.append(f"job sets differ: {sorted(set(ref_jobs) ^ set(res_jobs))}")
    for job_id in sorted(set(ref_jobs) & set(res_jobs)):
        if ref_jobs[job_id] != res_jobs[job_id]:
            out.append(f"job {job_id}: records differ "
                       f"({ref_jobs[job_id]!r} != {res_jobs[job_id]!r})")
    a = _filter_metrics(reference.final_metrics)
    b = _filter_metrics(resumed.final_metrics)
    if a != b:
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        out.append(f"final metrics differ on {keys}")
    return out


# -- the experiment ------------------------------------------------------------

@dataclass
class ChaosReport:
    """Outcome of one kill/resume equivalence experiment."""

    kill_round: int
    kill_stage: str
    #: True when the injected crash actually fired during the victim run.
    crashed: bool = False
    #: round index of the checkpoint the resumed run started from
    #: (-1 = no usable checkpoint; the run restarted from scratch).
    resumed_from_round: int = -1
    #: checkpoint files skipped as corrupt during resume.
    corrupt_skipped: list[str] = field(default_factory=list)
    reference_rounds: int = 0
    resumed_rounds: int = 0
    #: human-readable field-level differences (empty = bit-identical).
    mismatches: list[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "EQUIVALENT" if self.equivalent else \
            f"DIVERGED ({len(self.mismatches)} mismatches)"
        resume = (f"resumed from round {self.resumed_from_round}"
                  if self.resumed_from_round >= 0 else "restarted from scratch")
        skipped = (f", skipped {len(self.corrupt_skipped)} corrupt"
                   if self.corrupt_skipped else "")
        fired = "" if self.crashed else "; no crash fired"
        return (f"kill@{self.kill_round}/{self.kill_stage} -> {resume}"
                f"{skipped}; {self.resumed_rounds}/{self.reference_rounds} "
                f"rounds; {status}{fired}")


def run_chaos(factory: Callable[[CheckpointConfig | None], "Simulator"], *,
              directory: str | Path, kill_round: int | None = None,
              kill_stage: str = "round_end", chaos_seed: int = 0,
              every_rounds: int = 5, keep: int = 0,
              corrupt_latest: bool = False) -> ChaosReport:
    """Run one kill/resume equivalence experiment.

    ``factory(checkpoint_config)`` must build a *fresh* simulator — new
    scheduler, same cluster/jobs/seed — for each of the three runs
    (reference gets ``None``).  ``kill_round=None`` picks a round uniformly
    from the reference run's span using ``chaos_seed``.  ``keep=0`` retains
    every checkpoint so corruption fallback always has older files to land
    on.
    """
    directory = Path(directory)
    reference = factory(None).run()
    n_rounds = len(reference.rounds)
    if kill_round is None:
        # Land inside the run, past the first checkpoint when possible.
        lo = min(every_rounds, max(1, n_rounds - 1))
        kill_round = random.Random(chaos_seed).randint(lo, max(lo, n_rounds))
    report = ChaosReport(kill_round=kill_round, kill_stage=kill_stage,
                         reference_rounds=n_rounds)

    hook = CrashAt(kill_round, kill_stage)
    victim_cfg = CheckpointConfig(directory=directory,
                                  every_rounds=every_rounds, keep=keep,
                                  crash_hook=hook)
    victim = factory(victim_cfg)
    try:
        victim.run()
    except SimulatedCrash:
        report.crashed = True

    if corrupt_latest:
        existing = ckpt.list_checkpoints(directory)
        if existing:
            corrupt_checkpoint(existing[-1])

    resume_cfg = CheckpointConfig(directory=directory,
                                  every_rounds=every_rounds, keep=keep)
    survivor = factory(resume_cfg)
    try:
        state, used, skipped = ckpt.latest_valid_checkpoint(directory)
        report.resumed_from_round = state.round_index
        report.corrupt_skipped = [p.name for p in skipped]
        # By path, so the survivor's writes append to the same directory's
        # segments as a CLI resume's do.
        resumed = survivor.run(resume_from=used)
    except CheckpointError:
        # Nothing usable on disk (crash before the first checkpoint, or
        # everything corrupt): recovery is a fresh start.
        resumed = survivor.run()
    report.resumed_rounds = len(resumed.rounds)
    report.mismatches = diff_results(reference, resumed)
    return report
