"""Streaming exporters: JSONL written as the run goes, and Prometheus.

Each JSONL telemetry artifact (events, ledger, alerts, health events) has
one writer, a round observer the engine invokes after each recorded round
(``SimulatorConfig.observers``), and one reader, :func:`read_jsonl`.  A
finished result exports by replaying it through the same observer:
``LedgerStreamObserver(path, name).on_finalize(result)`` drains every
recorded round through the observer's cursor.  The contract every
observer here honors:

* **read-only** with respect to simulation state — an observed run is
  bit-identical to an unobserved one (the only writes are ``record.alerts``
  and ``slo.*``/``stream.*`` metrics, both excluded from the chaos
  determinism oracle exactly like wall-clock timing);
* **crash-durable** — stream files are flushed at every round boundary, so
  killing the process mid-run leaves a valid, parseable JSONL prefix at
  ``<path>.part``; a clean finish atomically renames it over the final
  path (the same write-tmp-then-rename discipline as
  :mod:`repro.atomicio`);
* **resume-aware** — each observer tracks a round cursor into
  ``result.rounds``, so attaching to a run resumed from a checkpoint first
  catches up on the restored history before streaming new rounds.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs.ledger import LedgerEntry, round_entries
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLOEngine

#: version of every artifact the streams and :mod:`repro.io` write.
FORMAT_VERSION = 1

#: What ``json.dumps`` writes for a str.
_json_str = json.encoder.encode_basestring_ascii


def json_value(value: Any) -> str:
    """``json.dumps(value)``, written directly for a str, an int or a
    finite float (the JSON text of a float is its ``repr``); anything else
    (a bool, None, a non-finite or numpy float, a container) goes through
    ``json.dumps``.  The hot stream lines are built from it."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


def json_object(data: dict[str, Any]) -> str:
    """``json.dumps(data)`` for a dict with str keys, each value written
    by :func:`json_value`."""
    return "{" + ", ".join([f"{_json_str(key)}: {json_value(value)}"
                            for key, value in data.items()]) + "}"


def check_payload(payload: dict[str, Any], kind: str) -> None:
    """Reject a header or JSON document of another kind or version."""
    if payload.get("kind") != kind:
        raise ValueError(f"file is a {payload.get('kind')!r}, expected {kind!r}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r} "
                         f"(this build reads version {FORMAT_VERSION})")


# -- observer protocol ---------------------------------------------------------

class RoundObserver:
    """Base class for per-round engine hooks.

    The engine calls :meth:`on_round` after appending each
    :class:`~repro.sim.telemetry.RoundRecord` and :meth:`on_finalize` once
    the result is complete.  The cursor loop makes observers resume-aware:
    the first ``on_round`` after a checkpoint restore walks every
    already-recorded round before the new one.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def on_round(self, result: Any, round_index: int, dt: float) -> None:
        rounds = result.rounds
        while self._cursor < len(rounds):
            index = self._cursor
            self._cursor += 1
            self.observe(rounds[index], index, dt)

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        """Process one recorded round (override)."""

    def on_finalize(self, result: Any) -> None:
        """The run completed normally (override; flush/rename here)."""

    def close(self) -> None:
        """The run is over (normally or not); release file handles.  Never
        renames a part file — an aborted stream must stay a ``.part``."""


# -- JSONL writer and reader ---------------------------------------------------

class JsonlStreamWriter:
    """Incremental JSONL writer with an atomic finalize.

    Lines land in ``<path>.part``; :meth:`flush` (call it at round
    boundaries) pushes them to the OS so a crash leaves a parseable
    prefix; :meth:`finalize` fsyncs and atomically renames the part file
    over ``path``.  A reader can therefore distinguish three states: final
    file (complete), ``.part`` file (truncated prefix of a crashed run),
    nothing (never started).

    Writes buffer in memory and :meth:`flush` emits them as one raw
    ``os.write`` — the per-round flush contract puts this on the
    scheduling hot path, and a single syscall per round beats the
    ``TextIOWrapper``/``BufferedWriter`` stack by a wide margin there.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.part_path = self.path.with_name(self.path.name + ".part")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: int | None = os.open(
            self.part_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        self._pending: list[str] = []
        self.lines = 0
        self.finalized = False

    def write(self, obj: dict[str, Any]) -> None:
        if self._fd is None:
            raise ValueError(f"stream {self.path} is closed")
        self._pending.append(json.dumps(obj) + "\n")
        self.lines += 1

    def write_lines(self, lines: list[str]) -> None:
        """Batched fast path: ``lines`` are pre-serialized JSON documents,
        each already newline-terminated."""
        if self._fd is None:
            raise ValueError(f"stream {self.path} is closed")
        self._pending.extend(lines)
        self.lines += len(lines)

    def flush(self) -> None:
        if self._fd is None or not self._pending:
            return
        view = memoryview("".join(self._pending).encode("utf-8"))
        self._pending.clear()
        while view:
            view = view[os.write(self._fd, view):]

    def finalize(self) -> None:
        """Durably complete the stream: fsync the part file and atomically
        rename it to the final path."""
        if self.finalized:
            return
        if self._fd is None:
            raise ValueError(f"stream {self.path} was closed before finalize")
        self.flush()
        os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None
        os.replace(self.part_path, self.path)
        self.finalized = True

    def close(self) -> None:
        """Abort path: flush and close, leaving the ``.part`` prefix."""
        if self._fd is not None:
            self.flush()
            os.close(self._fd)
            self._fd = None


def read_jsonl(path: str | Path, header_kind: str | None,
               parsers: dict[str, Callable[[dict[str, Any]], Any] | None],
               ) -> dict[str, list[Any]]:
    """Read a streamed JSONL artifact: ``{kind: parsed lines}`` in file
    order, for every kind whose parser is not None.

    Kinds mapped to None (the completeness trailers) parse to nothing, and
    any kind outside ``parsers`` is an error.  The file must carry a
    ``header_kind`` line of this build's format version; ``None`` reads a
    headerless stream (the event log).
    """
    parsed: dict[str, list[Any]] = {
        kind: [] for kind, parse in parsers.items() if parse is not None}
    header_seen = header_kind is None
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        item = json.loads(line)
        kind = item.get("kind")
        if header_kind is not None and kind == header_kind:
            check_payload(item, header_kind)
            header_seen = True
        elif kind in parsers:
            parse = parsers[kind]
            if parse is not None:
                parsed[kind].append(parse(item))
        else:
            raise ValueError(f"unknown {header_kind or 'event'} line kind "
                             f"{kind!r}")
    if not header_seen:
        raise ValueError(f"{path} is not a {header_kind} JSONL "
                         "(missing header)")
    return parsed


# -- streaming observers -------------------------------------------------------

class EventStreamObserver(RoundObserver):
    """Streams tracer spans/instants as JSONL while the run is live.

    Spans stream in completion order and instants interleave; finalize
    appends the metrics snapshot plus a ``stream_end`` completeness
    trailer.  :func:`repro.obs.export.read_events_jsonl` reads it back.
    """

    def __init__(self, tracer: Any, path: str | Path,
                 metrics: MetricsRegistry | None = None):
        super().__init__()
        self.tracer = tracer
        self.writer = JsonlStreamWriter(path)
        self._rounds_counter = (metrics.counter("stream.events_rounds")
                                if metrics is not None else None)
        self._span_cursor = 0
        self._event_cursor = 0

    def on_round(self, result: Any, round_index: int, dt: float) -> None:
        self._drain()
        if self._rounds_counter is not None:
            self._rounds_counter.inc()
        self.writer.flush()

    def _drain(self) -> None:
        # Hand-written span and event lines, byte-identical to json.dumps
        # of their dict form, batched into one buffered write: this drain
        # sits on the per-round hot path, where ~30 json.dumps calls a
        # round measurably raise the observer's per-round time.
        lines: list[str] = []
        spans = self.tracer.spans
        while self._span_cursor < len(spans):
            span = spans[self._span_cursor]
            self._span_cursor += 1
            parent = (span.parent_id if span.parent_id is not None
                      else "null")
            lines.append(
                f'{{"kind": "span", "name": {json_value(span.name)}, '
                f'"start": {json_value(span.start)}, '
                f'"duration": {json_value(span.duration)}, '
                f'"span_id": {span.span_id}, "parent_id": {parent}, '
                f'"depth": {span.depth}, '
                f'"attrs": {json_object(span.attrs)}}}\n')
        events = self.tracer.events
        while self._event_cursor < len(events):
            name, ts, attrs = events[self._event_cursor]
            self._event_cursor += 1
            lines.append(
                f'{{"kind": "event", "name": {json_value(name)}, '
                f'"time": {json_value(ts)}, '
                f'"attrs": {json_object(attrs)}}}\n')
        if lines:
            self.writer.write_lines(lines)

    def on_finalize(self, result: Any) -> None:
        self._drain()
        self.writer.write({"kind": "metrics",
                           "values": dict(result.final_metrics)})
        self.writer.write({"kind": "stream_end",
                           "spans": self._span_cursor,
                           "events": self._event_cursor})
        self.writer.finalize()

    def close(self) -> None:
        self.writer.close()


class _RecordStream(RoundObserver):
    """The shape every per-record stream shares: a header line, the lines
    each recorded round yields, one flush per round, and a completeness
    trailer before the atomic finalize.  A killed run leaves the flushed
    prefix at ``<path>.part``, without the trailer.

    Subclasses supply ``header_kind``, :meth:`round_lines` and
    :meth:`trailer`.  None of the public observers inherits from another,
    so wrapping one's ``on_round`` at class level never times another.
    """

    header_kind = ""

    def __init__(self, path: str | Path, scheduler_name: str):
        super().__init__()
        self.writer = JsonlStreamWriter(path)
        self.writer.write({"kind": self.header_kind,
                           "format_version": FORMAT_VERSION,
                           "scheduler_name": scheduler_name})

    def round_lines(self, record: Any, round_index: int) -> list[str]:
        """The round's pre-serialized, newline-terminated lines."""
        raise NotImplementedError

    def trailer(self, result: Any) -> dict[str, Any]:
        raise NotImplementedError

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        lines = self.round_lines(record, round_index)
        if lines:
            self.writer.write_lines(lines)
        self.writer.flush()

    def on_finalize(self, result: Any) -> None:
        self.on_round(result, len(result.rounds) - 1, 0.0)  # drain stragglers
        self.writer.write(self.trailer(result))
        self.writer.finalize()

    def close(self) -> None:
        self.writer.close()


class LedgerStreamObserver(_RecordStream):
    """Streams the goodput ledger + audit trail (``--ledger-out``): each
    round's ``ledger_entry`` lines, then its ``alloc_event`` lines, and a
    ``ledger_end`` trailer; :func:`repro.io.load_ledger` reads it back."""

    header_kind = "ledger"

    def round_lines(self, record: Any, round_index: int) -> list[str]:
        lines = [ledger_line(entry)
                 for entry in round_entries(record, round_index)]
        # An event's own dict carries a "kind" (the event kind), so it is
        # nested rather than spread into the line.
        lines += [json.dumps({"kind": "alloc_event",
                              "event": event.to_dict()}) + "\n"
                  for event in record.events]
        return lines

    def trailer(self, result: Any) -> dict[str, Any]:
        return {"kind": "ledger_end", "num_rounds": len(result.rounds)}


def ledger_line(entry: LedgerEntry) -> str:
    """The ``ledger_entry`` line of ``entry``: ``json.dumps`` of
    ``{"kind": "ledger_entry", **entry.to_dict()}`` and a newline, written
    directly (one per running job per round)."""
    line = (f'{{"kind": "ledger_entry", '
            f'"round_index": {json_value(entry.round_index)}, '
            f'"time": {json_value(entry.time)}, '
            f'"job_id": {json_value(entry.job_id)}, '
            f'"gpu_type": {json_value(entry.gpu_type)}, '
            f'"num_gpus": {json_value(entry.num_gpus)}')
    if entry.estimated_goodput is not None:
        line += f', "estimated_goodput": {json_value(entry.estimated_goodput)}'
    if entry.realized_goodput is not None:
        line += f', "realized_goodput": {json_value(entry.realized_goodput)}'
    if entry.realized_throughput is not None:
        line += (f', "realized_throughput": '
                 f'{json_value(entry.realized_throughput)}')
    return line + "}\n"


class AlertStreamObserver(_RecordStream):
    """Streams fired SLO alerts (``--alerts-out``): one ``alert`` line per
    alert and an ``alerts_end`` trailer; :func:`repro.io.load_alerts`
    reads it back.  Attach it *after* the :class:`SLOObserver` in
    ``observers`` so each round's alerts exist by the time this observer
    sees the record.
    """

    header_kind = "alerts"

    def __init__(self, path: str | Path, scheduler_name: str = ""):
        super().__init__(path, scheduler_name)
        self.count = 0

    def round_lines(self, record: Any, round_index: int) -> list[str]:
        self.count += len(record.alerts)
        return [json.dumps({"kind": "alert", **alert.to_dict()}) + "\n"
                for alert in record.alerts]

    def trailer(self, result: Any) -> dict[str, Any]:
        return {"kind": "alerts_end", "num_alerts": self.count}


class HealthEventStreamObserver(_RecordStream):
    """Streams node-health transitions (``--health-events-out``): one
    ``health_event`` line per transition, tagged with its round index, and
    a ``health_events_end`` trailer; :func:`repro.io.load_health_events`
    reads it back as :meth:`SimulationResult.health_timeline` pairs."""

    header_kind = "health_events"

    def round_lines(self, record: Any, round_index: int) -> list[str]:
        # The event's own dict carries a "kind" (the transition kind), so
        # it is nested rather than spread into the line.
        return [json.dumps({"kind": "health_event", "round": round_index,
                            "event": event.to_dict()}) + "\n"
                for event in record.health_events]

    def trailer(self, result: Any) -> dict[str, Any]:
        return {"kind": "health_events_end",
                "num_rounds": len(result.rounds)}


class SLOObserver(RoundObserver):
    """Runs an :class:`~repro.obs.slo.SLOEngine` against each round and
    attaches the fired alerts to the round record (idempotent on resume
    catch-up: re-evaluating a restored round reproduces the same alerts,
    so assignment — not append — keeps replays duplicate-free)."""

    def __init__(self, engine: SLOEngine | None = None):
        super().__init__()
        self.engine = engine or SLOEngine()

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        fired = self.engine.observe_round(record, round_index, dt)
        record.alerts = list(fired)


class PrometheusSnapshotObserver(RoundObserver):
    """Rewrites a Prometheus text-exposition snapshot of the metrics
    registry (``--prom-out``) — a node-exporter-textfile-style file a
    scraper can poll while the run is live.

    Per-round snapshots are atomic for readers (write-tmp-then-rename)
    but deliberately *not* fsynced, and are throttled to at most one per
    ``min_interval_s`` of wall clock: the file is overwritten on the next
    round anyway, so per-round durability buys nothing and an fsync per
    round would dominate fast rounds.  Only the finalize write (the
    snapshot that outlives the run) goes through the durable
    :mod:`repro.atomicio` path."""

    def __init__(self, metrics: MetricsRegistry, path: str | Path, *,
                 min_interval_s: float = 0.25):
        super().__init__()
        self.metrics = metrics
        self.path = Path(path)
        self.min_interval_s = min_interval_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._last_write = float("-inf")

    def observe(self, record: Any, round_index: int, dt: float) -> None:
        now = time.monotonic()
        if now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        self._tmp.write_text(prometheus_text(self.metrics),
                             encoding="utf-8")
        os.replace(self._tmp, self.path)

    def on_finalize(self, result: Any) -> None:
        from repro.atomicio import atomic_write_text
        atomic_write_text(self.path, prometheus_text(self.metrics))


# -- Prometheus text exposition ------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"           # metric name
    r"(\{[^{}]*\})?"                          # optional labels
    r"\s+(-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|NaN|[+-]?Inf))$")  # value


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized[:1].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a registry in Prometheus text exposition format 0.0.4:
    counters as ``counter``, gauges as ``gauge``, histograms as
    ``summary`` (quantiles + ``_sum``/``_count``)."""
    lines: list[str] = []
    for name, metric in metrics.items():
        prom = prometheus_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {metric.value:g}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {metric.value:g}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(f'{prom}{{quantile="{q:g}"}} '
                             f"{metric.quantile(q):g}")
            lines.append(f"{prom}_sum {metric.total:g}")
            lines.append(f"{prom}_count {metric.count:g}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Strict parser/validator for the exposition format we emit: returns
    ``{name or name{labels}: value}`` and raises ``ValueError`` on any
    malformed line — the CI gate that ``--prom-out`` output parses."""
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE" and parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: bad metric type {parts[3]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, labels, value = match.groups()
        samples[name + (labels or "")] = float(value)
    return samples
