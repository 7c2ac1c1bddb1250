"""Structured tracing spans: nestable, low-overhead, dependency-free.

A :class:`Tracer` records *spans* — named wall-clock intervals with
attributes and parent/child structure::

    tracer = Tracer()
    with tracer.span("plan", scheduler="sia", jobs=12):
        with tracer.span("solve", backend="milp"):
            ...

Every finished span becomes an immutable-ish :class:`SpanRecord` on
``tracer.spans``; nesting is tracked with an explicit stack, so spans opened
inside an open span become its children without any caller bookkeeping.

The default tracer everywhere in this repo is :data:`NULL_TRACER`, whose
``span()`` hands back one shared no-op context manager — uninstrumented runs
pay a single method call and dict construction per span site, nothing more,
and record nothing.  Exporters for the recorded spans (Chrome ``trace_event``
JSON, JSONL, digest) live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

#: the engine's round phases, in order: each runs under a span of its name
#: that is a direct child of ``round`` (``faults`` only with fault models,
#: ``health`` only with the health layer on).  See :mod:`repro.sim.engine`.
ROUND_PHASES = ("faults", "health", "plan", "apply", "audit", "advance",
                "close")

#: the standard phase spans every scheduler emits inside the engine's
#: ``plan`` span (Figure 9's solve-time scalar, split into where the time
#: actually goes).  ``repro.schedulers.base`` re-exports this tuple.
PLAN_PHASES = ("bootstrap", "goodput_eval", "solve", "placement")


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    #: seconds since the tracer's epoch (its construction time).
    start: float
    #: wall-clock seconds the span was open.
    duration: float
    span_id: int
    #: id of the enclosing span, or None for a root span.
    parent_id: int | None
    #: nesting depth (0 for root spans).
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class SpanStats:
    """Aggregate statistics over every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def span_stats(spans: Iterable[SpanRecord], name: str) -> SpanStats:
    """Aggregate duration stats for every span in ``spans`` named ``name``."""
    count, total = 0, 0.0
    lo, hi = math.inf, 0.0
    for span in spans:
        if span.name != name:
            continue
        count += 1
        total += span.duration
        lo = min(lo, span.duration)
        hi = max(hi, span.duration)
    return SpanStats(name=name, count=count, total=total, min=lo, max=hi)


class _Span:
    """Context manager for one live span (real tracer only)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_span_id",
                 "_parent_id", "_depth", "record")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        #: the finished SpanRecord, populated on exit.
        self.record: SpanRecord | None = None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open (e.g. outcomes
        discovered mid-body, like a solver timeout)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self._parent_id = stack[-1] if stack else None
        self._depth = len(stack)
        self._span_id = tracer._next_id
        tracer._next_id += 1
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        self.record = SpanRecord(
            name=self._name,
            start=self._start - tracer._epoch,
            duration=end - self._start,
            span_id=self._span_id,
            parent_id=self._parent_id,
            depth=self._depth,
            attrs=self._attrs,
        )
        tracer.spans.append(self.record)
        return False


def _null_tracer() -> "NullTracer":
    return NULL_TRACER


class Tracer:
    """Collects spans and instant events for one run.

    Any pickle of a tracer loads as :data:`NULL_TRACER`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        #: instant (zero-duration) events: (name, time-since-epoch, attrs).
        self.events: list[tuple[str, float, dict[str, Any]]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    def __reduce__(self) -> tuple:
        # Spans measure host wall-clock time, which belongs to the process,
        # not to a snapshot of the simulation (checkpoints, forks).
        return _null_tracer, ()

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker event (e.g. a health event)."""
        self.events.append((name, time.perf_counter() - self._epoch, attrs))

    # -- queries ---------------------------------------------------------------

    def span_stats(self, name: str) -> SpanStats:
        return span_stats(self.spans, name)

    def totals_by_name(self) -> dict[str, float]:
        """Total seconds spent in spans of each name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def children(self, span_id: int) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span_id]

    def reset(self) -> None:
        """Drop recorded spans/events (the epoch is kept)."""
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._next_id = 1


class _NullSpan:
    """Shared no-op span: entering/exiting does nothing."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: records nothing, costs (almost) nothing."""

    enabled = False
    #: immutable empties so callers can iterate without branching.
    spans: tuple[SpanRecord, ...] = ()
    events: tuple = ()

    def __reduce__(self) -> tuple:
        return _null_tracer, ()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        pass

    def span_stats(self, name: str) -> SpanStats:
        return SpanStats(name=name)

    def totals_by_name(self) -> dict[str, float]:
        return {}

    def children(self, span_id: int) -> list[SpanRecord]:
        return []

    def reset(self) -> None:
        pass


#: process-wide no-op tracer; safe to share (it holds no state).
NULL_TRACER = NullTracer()
