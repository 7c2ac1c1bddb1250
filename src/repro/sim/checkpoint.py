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

Durability contract:

* every checkpoint is written with the shared write-tmp-then-rename helper
  (:func:`repro.io.atomic_write_bytes`), so a crash mid-write never
  corrupts an existing checkpoint — at worst it leaves a partial ``.tmp``
  sibling that is ignored and overwritten;
* the payload is guarded by a SHA-256 checksum in the header;
  :func:`read_checkpoint` verifies it and raises
  :class:`CheckpointCorruptError` on any mismatch, truncation, or header
  damage;
* :func:`latest_valid_checkpoint` walks a checkpoint directory newest to
  oldest and falls back past corrupted files, so torn writes on
  non-atomic filesystems degrade a resume by a few rounds instead of
  killing it.

Tracers are deliberately *not* checkpointed: spans measure host wall-clock
time, not simulation state.  Every tracer pickles as ``NULL_TRACER`` (its
``__reduce__``), so the payload is a plain C-speed pickle, and the engine
re-injects its live tracer on restore.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.atomicio import atomic_write_bytes

#: file magic; bump FORMAT_VERSION on any incompatible payload change.
#: v2: ``finished`` holds JobRecords instead of whole job runtimes.
#: v3: schedulers are never wrapped (the scheduler guard class is gone).
#: v4: the Sia policy holds no resilient-solver object (one solve ladder).
#: v5: Pollux estimators are type-blind ``JobPerfEstimator``s (one shared
#:     per-type state), and MAD-window keys lead with the GPU type.
#: v6: ``HealthConfig`` holds only ``min_samples``; node crashes, stragglers
#:     and gray failures keep their episodes in one ``_until`` map.
MAGIC = b"REPRO-CKPT"
FORMAT_VERSION = 6

#: stages an injectable crash hook is called at, in order.  ``round_end``
#: fires in the engine loop after each recorded round; the write stages
#: fire inside the atomic checkpoint write.
CRASH_STAGES = ("round_end", "pre_write", "mid_write", "pre_rename",
                "post_rename")

_CKPT_NAME = re.compile(r"^ckpt-(\d{8})\.ckpt$")


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
    """The complete mutable engine state at a between-rounds boundary.

    Everything the main loop reads lives here; the constructor-derived
    immutables (cluster structure, config knobs) are *verified* against the
    resuming simulator rather than restored, via :attr:`cluster_signature`.
    """

    #: rounds recorded so far == index of the next round to run.
    round_index: int
    #: simulation clock at the snapshot (start of the next round).
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
    #: the run's metrics registry (shared refs with scheduler preserved).
    metrics: Any
    #: invariant checker mid-run state (None when checking is off).
    invariants: Any
    #: node-health tracker mid-run state (None when the health layer is
    #: off; a resume that turns it on starts a fresh tracker).
    health: Any = None
    total_failures: int = 0
    caught_scheduler_failures: int = 0
    #: structural echo of the cluster, checked at resume time.
    cluster_signature: tuple = ()
    #: config echoes, checked/logged at resume time.
    seed: int = 0
    scheduler_name: str = ""
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

def write_checkpoint(state: CheckpointState, path: str | Path, *,
                     crash_hook: Callable[[str], None] | None = None) -> Path:
    """Serialize ``state`` to ``path`` atomically, with a checksum header.

    Layout: one ASCII header line ``REPRO-CKPT v<version> <sha256-hex>
    <payload-bytes>\\n`` followed by the pickle payload.  The write goes
    through :func:`repro.io.atomic_write_bytes`, so an interrupted write
    (including one killed by ``crash_hook``) leaves any previous file at
    ``path`` untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dumps_state(state)
    digest = hashlib.sha256(payload).hexdigest()
    header = b"%s v%d %s %d\n" % (MAGIC, FORMAT_VERSION,
                                  digest.encode("ascii"), len(payload))
    atomic_write_bytes(path, header + payload, crash_hook=crash_hook)
    return path


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Read and verify one checkpoint file.

    Raises :class:`CheckpointCorruptError` on checksum mismatch,
    truncation, or header damage; :class:`CheckpointError` if the file is
    missing or from an incompatible format version.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
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
    return loads_state(payload)


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
    """Delete all but the newest ``keep`` checkpoints; returns the deleted
    paths.  ``keep=0`` keeps everything."""
    if keep <= 0:
        return []
    candidates = list_checkpoints(directory)
    doomed = candidates[:-keep] if len(candidates) > keep else []
    for path in doomed:
        path.unlink(missing_ok=True)
    return doomed
