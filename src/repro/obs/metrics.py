"""Metrics registry: counters, gauges, and histograms for one run.

Schedulers and the simulator update named metrics through a shared
:class:`MetricsRegistry`, the live sink the Prometheus snapshot and the
event stream read.  The simulator snapshots it once, at the end of a run,
into ``SimulationResult.final_metrics``; per-round series derive from the
:class:`~repro.sim.telemetry.RoundRecord` facts instead.
Dependency-free, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import math


def interpolated_quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted list, q in [0, 1].

    The single quantile definition shared by post-hoc histograms
    (:meth:`Histogram.quantile`) and the online rolling windows
    (:mod:`repro.obs.window`), matching numpy's default ("linear")
    interpolation — so live SLO evaluation and after-the-fact analysis
    always agree on what "p95" means.  Empty input reports 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Counter:
    """Monotonically increasing count (rounds planned, faults injected...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution summary; keeps every observation.

    Runs are bounded (one observation per round at most), so exact storage
    is cheap and percentiles stay honest.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1] — numpy's default
        interpolation, shared with the rolling windows of
        :mod:`repro.obs.window` via :func:`interpolated_quantile`."""
        return interpolated_quantile(sorted(self.values), q)


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is a "
                            f"{type(metric).__name__}, not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def items(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        """(name, metric) pairs in sorted name order — the exporter view
        (:func:`repro.obs.stream.prometheus_text` needs metric *types*,
        which the flat :meth:`snapshot` erases)."""
        return [(name, self._metrics[name]) for name in sorted(self._metrics)]

    def restore(self, saved: "MetricsRegistry") -> None:
        """Copy ``saved``'s values into this registry's own metric objects,
        so references already held to them (an observer's cached gauge)
        stay live.  Metrics ``saved`` lacks keep their values."""
        for name, metric in saved.items():
            mine = self._get(name, type(metric))
            if isinstance(metric, Histogram):
                mine.values[:] = metric.values
            else:
                mine.value = metric.value

    def snapshot(self) -> dict[str, float]:
        """Flat name -> value view of every metric (histograms contribute
        ``<name>.count`` / ``<name>.mean`` / ``<name>.max``)."""
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = float(metric.count)
                out[f"{name}.mean"] = metric.mean
                out[f"{name}.max"] = metric.max
            else:
                out[name] = metric.value
        return out
