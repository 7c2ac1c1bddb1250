"""Crash-safe checkpoint/restore for the simulation engine (Section 3.5,
applied to the scheduler itself).

Sia treats checkpoint-restore as a first-class cost for the *jobs* it
schedules; a production scheduler must extend the same courtesy to its own
process.  This module serializes the complete mutable state of a running
:class:`~repro.sim.engine.Simulator` — per-job runtimes of active jobs
(estimators, observations, caches, progress), the ``JobRecord`` of every
finished job, the arrival cursor, recorded rounds, the
execution model and every fault model (including their
``np.random.Generator`` bit-generator states, captured exactly by the
pickle protocol), the scheduler with its policy caches, the metrics
registry, and the invariant checker — so a killed run can resume **bit-identically** to an
uninterrupted one.

On disk a checkpoint is a small **body** plus immutable **segments**.
Recorded rounds and finished jobs' records are append-only, so each write
puts only the ones since the previous write into a new segment file
(``rounds-<first>-<end>.seg``) and pickles the rest of the state, with
both lists empty, as the body (``ckpt-<round>.ckpt``).  The body carries a
manifest naming every segment it needs with its SHA-256, and
:func:`read_checkpoint` reattaches them, so a write costs about the same
at round 500 as at round 25.  No object is shared between a body and its
segments: rounds and finished records are built fresh each round and
never touched again, so pickling them apart severs no reference.

Durability contract:

* every file is written with the shared write-tmp-then-rename helper
  (:func:`repro.io.atomic_write_bytes`), segment first, body last, so a
  crash mid-write never corrupts an existing checkpoint — at worst it
  leaves a partial ``.tmp`` sibling, or a segment no body names yet, both
  ignored and overwritten;
* every payload is guarded by a SHA-256 checksum in its header, and the
  body's manifest pins each segment's digest; :func:`read_checkpoint`
  verifies them all and raises :class:`CheckpointCorruptError` on any
  mismatch, truncation, missing segment, or header damage;
* :func:`latest_valid_checkpoint` walks a checkpoint directory newest to
  oldest and falls back past corrupted files, so torn writes on
  non-atomic filesystems degrade a resume by a few rounds instead of
  killing it.  An older body names fewer segments, so a damaged newest
  segment costs only the newest body.

Tracers are deliberately *not* checkpointed: spans measure host wall-clock
time, not simulation state.  Every tracer pickles as ``NULL_TRACER`` (its
``__reduce__``), so the payload is a plain C-speed pickle, and the engine
re-injects its live tracer on restore.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.atomicio import atomic_write_bytes

#: file magic; bump FORMAT_VERSION on any incompatible payload change.
#: v2: ``finished`` holds JobRecords instead of whole job runtimes.
#: v3: schedulers are never wrapped (the scheduler guard class is gone).
#: v4: the Sia policy holds no resilient-solver object (one solve ladder).
#: v5: Pollux estimators are type-blind ``JobPerfEstimator``s (one shared
#:     per-type state), and MAD-window keys lead with the GPU type.
#: v6: ``HealthConfig`` holds only ``min_samples``; node crashes, stragglers
#:     and gray failures keep their episodes in one ``_until`` map.
#: v7: a checkpoint is a body plus append-only segments holding the
#:     recorded rounds and finished records; the body's manifest names them.
#: v8: the engine runs on its ``CheckpointState``; the state drops
#:     ``total_failures``, ``caught_scheduler_failures``, ``seed`` and
#:     ``scheduler_name``, and ``RoundRecord`` gains ``queued``.
#: v9: estimators hold a ``RunningFit`` per GPU type in place of the
#:     observation list, and memoize their per-type batch-size caps.
#: v10: the LP-rounding solver backend is gone; a pickled
#:     ``SiaPolicyParams`` naming it skips the name check on restore and
#:     would fail every round's solve.
#: v11: a ``RunningFit`` holds one running mean per configuration, not
#:     the multi-GPU reports, their sync points or any cached fit.
#: v12: estimators hold no plans and no cache epochs; rated plans live
#:     only in the scheduler's plan memo, which is not pickled.
#: v13: a pickled ``Job`` has no workload kind and no latency target, and
#:     an ``InvariantChecker`` holds no mode and no violations list.
#: v14: a pickled ``SiaPolicyParams`` has no solve budget.
#: v15: a pickled ``RoundRecord`` has no ``active_jobs``, ``running_jobs``,
#:     ``gpus_used`` or ``degraded``, and a ``SimulationResult`` no
#:     ``censored`` or ``node_failures``: each derives from stored facts.
#: v16: a pickled ``RoundRecord`` has no ``metrics`` snapshot.
MAGIC = b"REPRO-CKPT"
FORMAT_VERSION = 16

#: stages an injectable crash hook is called at, in order.  ``round_end``
#: fires in the engine loop after each recorded round; the write stages
#: fire inside each atomic file write of a checkpoint (segment, then body).
CRASH_STAGES = ("round_end", "pre_write", "mid_write", "pre_rename",
                "post_rename")

_CKPT_NAME = re.compile(r"^ckpt-(\d{8})\.ckpt$")


class Segment(NamedTuple):
    """One manifest entry: the segment file holding ``rounds[first:end]``
    and ``finished[f0:f1]``, whose payload hashes to ``sha256``."""

    first: int
    end: int
    f0: int
    f1: int
    sha256: str


class CheckpointError(RuntimeError):
    """No usable checkpoint (missing file, empty directory, bad version)."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed checksum/structure verification."""


@dataclass
class CheckpointConfig:
    """Checkpointing knobs carried on ``SimulatorConfig.checkpoint``."""

    #: directory checkpoints are written to (created on first write).
    directory: str | Path
    #: write a checkpoint every N recorded rounds (0 = only on demand).
    every_rounds: int = 25
    #: checkpoints retained on disk; older ones are pruned (0 = keep all).
    keep: int = 3
    #: chaos-injection point: called as ``crash_hook(stage, round_index)``
    #: at every :data:`CRASH_STAGES` point; raising simulates a crash.
    crash_hook: Callable[[str, int], None] | None = None

    def __post_init__(self) -> None:
        if self.every_rounds < 0:
            raise ValueError("every_rounds must be >= 0")
        if self.keep < 0:
            raise ValueError("keep must be >= 0")


@dataclass
class CheckpointState:
    """The complete mutable engine state: the simulator runs on one
    (``Simulator.state``), and a checkpoint is a snapshot of it at a
    between-rounds boundary.

    Everything the main loop reads lives here; the constructor-derived
    immutables (cluster structure, config knobs) are *verified* against the
    resuming simulator rather than restored, via :attr:`cluster_signature`.
    """

    #: rounds recorded so far == index of the next round to run (set in
    #: a snapshot; the live state keeps the value it started from).
    round_index: int
    #: simulation clock (in a snapshot, the start of the next round).
    now: float
    #: cursor into the sorted arrival list.
    arrival_idx: int
    #: the full sorted arrival list (jobs are small; carrying them makes a
    #: resume independent of the constructor's job list).
    arrivals: list[Any]
    #: job id -> _JobRuntime for admitted, unfinished jobs.
    active: dict[str, Any]
    #: JobRecords of finished jobs, in finish order (their runtimes and
    #: estimators are dropped when they finish).
    finished: list[Any]
    #: the result-in-progress (rounds recorded so far; spans excluded).
    result: Any
    #: ExecutionModel with its RNG and per-(job, type) bias table.
    execution: Any
    #: bound fault models with their RNGs and outage/slowdown windows.
    fault_models: list[Any]
    #: the scheduler, including policy caches.
    scheduler: Any
    #: the run's metrics registry; a resume copies its values into the
    #: resuming simulator's own registry.
    metrics: Any
    #: invariant checker mid-run state (None when checking is off).
    invariants: Any
    #: node-health tracker mid-run state (None when the health layer is
    #: off; a resume that turns it on starts a fresh tracker).
    health: Any = None
    #: structural echo of the cluster, checked at resume time.
    cluster_signature: tuple = ()
    #: segments holding ``result.rounds`` and ``finished``, oldest first.
    #: In a body this is its full manifest; in the engine's live state,
    #: the segments already written to its checkpoint directory.
    segments: tuple[Segment, ...] = ()
    format_version: int = field(default=FORMAT_VERSION)


# -- pickling ------------------------------------------------------------------

def dumps_state(state: CheckpointState) -> bytes:
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def loads_state(payload: bytes) -> CheckpointState:
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # truncated/garbled pickle stream
        raise CheckpointCorruptError(f"unreadable checkpoint payload: {exc}")
    if not isinstance(state, CheckpointState):
        raise CheckpointCorruptError(
            f"payload is a {type(state).__name__}, not a CheckpointState")
    if state.format_version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {state.format_version} "
            f"(this build reads version {FORMAT_VERSION})")
    return state


# -- file format ---------------------------------------------------------------

def _frame(payload: bytes) -> tuple[bytes, str]:
    """File bytes for ``payload`` (header line + payload) and its digest."""
    digest = hashlib.sha256(payload).hexdigest()
    header = b"%s v%d %s %d\n" % (MAGIC, FORMAT_VERSION,
                                  digest.encode("ascii"), len(payload))
    return header + payload, digest


def _unframe(path: Path, missing: type[CheckpointError] = CheckpointError,
             ) -> tuple[bytes, str]:
    """Verified payload and digest of one checkpoint or segment file."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise missing(f"cannot read checkpoint {path}: {exc}")
    newline = raw.find(b"\n")
    if newline < 0 or not raw.startswith(MAGIC + b" "):
        raise CheckpointCorruptError(f"{path}: missing checkpoint header")
    try:
        _, version, digest, length = raw[:newline].split(b" ")
        version_num = int(version.lstrip(b"v"))
        expected_len = int(length)
    except ValueError:
        raise CheckpointCorruptError(f"{path}: malformed checkpoint header")
    if version_num != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format v{version_num} "
            f"(this build reads v{FORMAT_VERSION})")
    payload = raw[newline + 1:]
    if len(payload) != expected_len:
        raise CheckpointCorruptError(
            f"{path}: truncated payload ({len(payload)} bytes, header "
            f"promised {expected_len})")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CheckpointCorruptError(f"{path}: checksum mismatch")
    return payload, digest.decode("ascii")


def segment_path(directory: str | Path, first: int, end: int) -> Path:
    """File name of the segment holding rounds ``first..end-1``."""
    return Path(directory) / f"rounds-{first:08d}-{end:08d}.seg"


def write_checkpoint(state: CheckpointState, path: str | Path, *,
                     crash_hook: Callable[[str], None] | None = None,
                     ) -> tuple[Segment, ...]:
    """Write ``state`` as a body at ``path`` plus one new segment beside
    it; returns the body's manifest.

    ``state.segments`` names the segments already in ``path``'s directory;
    the rounds and finished records after them go into one new segment,
    written before the body.  Each file is one ASCII header line
    ``REPRO-CKPT v<version> <sha256-hex> <payload-bytes>\\n`` followed by
    its pickle payload, written through
    :func:`repro.io.atomic_write_bytes`, so an interrupted write
    (including one killed by ``crash_hook``) leaves any previous file at
    either path untouched.  The live ``state`` is never mutated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rounds = state.result.rounds if state.result is not None else []
    finished = state.finished
    manifest = state.segments
    first, f0 = (manifest[-1].end, manifest[-1].f1) if manifest else (0, 0)
    if first > len(rounds) or f0 > len(finished):
        raise CheckpointError(
            f"manifest covers {first} rounds and {f0} finished jobs, past "
            f"the state's {len(rounds)} and {len(finished)}")
    if first < len(rounds) or f0 < len(finished):
        data, digest = _frame(pickle.dumps(
            (rounds[first:], finished[f0:]), protocol=pickle.HIGHEST_PROTOCOL))
        atomic_write_bytes(segment_path(path.parent, first, len(rounds)),
                           data, crash_hook=crash_hook)
        manifest += (Segment(first, len(rounds), f0, len(finished), digest),)
    result = state.result
    if result is not None:
        result = replace(result, rounds=[])
    body = replace(state, finished=[], segments=manifest, result=result)
    atomic_write_bytes(path, _frame(dumps_state(body))[0],
                       crash_hook=crash_hook)
    return manifest


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Read and verify one checkpoint body and every segment it names.

    Raises :class:`CheckpointCorruptError` on checksum mismatch,
    truncation, header damage, or a missing or mismatched segment;
    :class:`CheckpointError` if the body is missing or from an
    incompatible format version.
    """
    path = Path(path)
    state = loads_state(_unframe(path)[0])
    rounds: list[Any] = []
    finished: list[Any] = []
    for seg in state.segments:
        seg_path = segment_path(path.parent, seg.first, seg.end)
        payload, digest = _unframe(seg_path, missing=CheckpointCorruptError)
        if digest != seg.sha256:
            raise CheckpointCorruptError(
                f"{seg_path}: digest does not match {path.name}'s manifest")
        try:
            seg_rounds, seg_finished = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointCorruptError(f"{seg_path}: unreadable: {exc}")
        if (seg.first, seg.f0) != (len(rounds), len(finished)) \
                or len(seg_rounds) != seg.end - seg.first \
                or len(seg_finished) != seg.f1 - seg.f0:
            raise CheckpointCorruptError(
                f"{seg_path}: does not match {path.name}'s manifest")
        rounds += seg_rounds
        finished += seg_finished
    if state.result is not None:
        state.result.rounds = rounds
    state.finished = finished
    return state


# -- checkpoint directories ----------------------------------------------------

def checkpoint_path(directory: str | Path, round_index: int) -> Path:
    """Canonical file name for the checkpoint taken after ``round_index``
    rounds (i.e. rounds ``0..round_index-1`` are recorded in it)."""
    return Path(directory) / f"ckpt-{round_index:08d}.ckpt"


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, oldest first (by round index)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _CKPT_NAME.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


def latest_valid_checkpoint(directory: str | Path, *,
                            max_round: int | None = None,
                            ) -> tuple[CheckpointState, Path, list[Path]]:
    """Newest checkpoint that verifies, falling back past corrupted ones.

    ``max_round`` caps the walk at checkpoints taken after at most that
    many rounds (by file name, so newer files are never read).  Returns
    ``(state, path, skipped)`` where ``skipped`` lists newer files that
    failed verification.  Raises :class:`CheckpointError` when no
    checkpoint in range loads.
    """
    candidates = list_checkpoints(directory)
    if max_round is not None:
        candidates = [path for path in candidates if int(
            _CKPT_NAME.match(path.name).group(1)) <= max_round]
    if not candidates:
        raise CheckpointError(f"no checkpoints found in {directory}")
    skipped: list[Path] = []
    for path in reversed(candidates):
        try:
            return read_checkpoint(path), path, skipped
        except CheckpointCorruptError:
            skipped.append(path)
    raise CheckpointError(
        f"all {len(candidates)} checkpoints in {directory} are corrupt: "
        + ", ".join(p.name for p in skipped))


def prune_checkpoints(directory: str | Path, keep: int) -> list[Path]:
    """Delete all but the newest ``keep`` checkpoint bodies; returns the
    deleted paths.  ``keep=0`` keeps everything.  Segments are never
    deleted: every body names the oldest ones, and together they hold
    about one copy of the run's rounds."""
    if keep <= 0:
        return []
    candidates = list_checkpoints(directory)
    doomed = candidates[:-keep] if len(candidates) > keep else []
    for path in doomed:
        path.unlink(missing_ok=True)
    return doomed
