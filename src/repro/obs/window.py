"""Online windowed aggregation over per-round series.

The live SLO evaluator (:mod:`repro.obs.slo`) needs percentiles and
rates over the most recent N scheduler rounds *while the run is in
flight* — without re-scanning the full history every round the way
:class:`~repro.obs.metrics.Histogram` does post hoc.

Every aggregator here does bounded work per update:

* :class:`RollingWindow` — last-N values in a ring buffer plus a sorted
  mirror maintained incrementally with :mod:`bisect` (O(log n) search,
  O(n) memmove on a small ``n``; nothing ever walks the full series), with
  quantiles over exactly the window.
* :class:`RollingRate` — fraction of true indicators in the last N rounds,
  O(1) via a running count.

Quantiles use the exact interpolation of
:func:`repro.obs.metrics.interpolated_quantile`, so an online rolling p95
and a post-hoc ``Histogram.quantile(0.95)`` over the same values agree to
the bit.  Non-finite inputs (NaN/inf) are rejected at the door and counted,
never silently folded into a percentile — corrupted telemetry must not be
able to poison an SLO evaluation.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

from repro.obs.metrics import interpolated_quantile


class RollingWindow:
    """Order statistics over the last ``size`` finite observations."""

    __slots__ = ("size", "_ring", "_sorted", "nan_count")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self._ring: deque[float] = deque()
        self._sorted: list[float] = []
        #: non-finite inputs rejected (NaN/inf never enter the window).
        self.nan_count = 0

    def push(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.nan_count += 1
            return
        self._ring.append(value)
        bisect.insort(self._sorted, value)
        if len(self._ring) > self.size:
            evicted = self._ring.popleft()
            index = bisect.bisect_left(self._sorted, evicted)
            self._sorted.pop(index)

    def __len__(self) -> int:
        return len(self._ring)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the window, q in [0, 1]."""
        return interpolated_quantile(self._sorted, q)


class RollingRate:
    """Fraction of true indicators among the last ``size`` rounds."""

    __slots__ = ("size", "_ring", "_true")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self._ring: deque[bool] = deque()
        self._true = 0

    def push(self, hit: bool) -> None:
        hit = bool(hit)
        self._ring.append(hit)
        self._true += hit
        if len(self._ring) > self.size:
            self._true -= self._ring.popleft()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def rate(self) -> float:
        return self._true / len(self._ring) if self._ring else 0.0
