"""Tests for repro.obs.window: bounded-work online aggregates.

The correctness bar is the offline reference: at every step of a seeded
series, a RollingWindow's quantiles must equal a from-scratch
recompute (numpy over the same trailing slice).  Window-boundary and NaN
edges get explicit cases.
"""

import random

import numpy as np
import pytest

from repro.obs.metrics import interpolated_quantile
from repro.obs.window import RollingRate, RollingWindow


def seeded_series(n=400, seed=7):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 1.5) for _ in range(n)]


class TestRollingWindowAgainstRecompute:
    @pytest.mark.parametrize("size", [1, 2, 7, 50])
    def test_quantiles_match_numpy_at_every_step(self, size):
        window = RollingWindow(size)
        series = seeded_series(120)
        for i, value in enumerate(series):
            window.push(value)
            tail = np.asarray(series[max(0, i + 1 - size):i + 1])
            for q in (0.0, 0.5, 0.95, 0.99, 1.0):
                assert window.quantile(q) == pytest.approx(
                    float(np.quantile(tail, q, method="linear")),
                    rel=1e-12), f"step {i} q={q}"

    def test_matches_post_hoc_histogram_quantile(self):
        # The shared-interpolation contract: an online rolling quantile
        # over a full window equals Histogram.quantile over those values.
        from repro.obs.metrics import Histogram
        series = seeded_series(30, seed=3)
        window = RollingWindow(30)
        hist = Histogram("t")
        for v in series:
            window.push(v)
            hist.observe(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert window.quantile(q) == hist.quantile(q)


class TestWindowBoundaries:
    def test_eviction_at_exact_capacity(self):
        window = RollingWindow(3)
        for v in (1.0, 2.0, 3.0):
            window.push(v)
        assert len(window) == 3
        window.push(10.0)  # evicts 1.0
        assert len(window) == 3
        assert window.quantile(0.0) == 2.0 and window.quantile(1.0) == 10.0
        assert window.quantile(0.5) == 3.0

    def test_duplicate_values_evict_one_copy(self):
        window = RollingWindow(2)
        window.push(5.0)
        window.push(5.0)
        window.push(1.0)  # evicts one 5.0, not both
        assert (window.quantile(0.0), window.quantile(1.0)) == (1.0, 5.0)

    def test_size_one_window_tracks_last_value(self):
        window = RollingWindow(1)
        for v in (9.0, 2.0, 7.0):
            window.push(v)
            assert window.quantile(0.5) == v
            assert window.quantile(0.0) == window.quantile(1.0) == v

    def test_empty_window_statistics(self):
        window = RollingWindow(5)
        assert len(window) == 0
        assert window.quantile(0.5) == 0.0  # documented empty-input value

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RollingWindow(0)

    def test_quantile_range_validated(self):
        window = RollingWindow(4)
        window.push(1.0)
        with pytest.raises(ValueError):
            window.quantile(1.5)
        with pytest.raises(ValueError):
            window.quantile(-0.1)


class TestNaNDefense:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_and_counted(self, bad):
        window = RollingWindow(4)
        window.push(1.0)
        window.push(bad)
        window.push(2.0)
        assert window.nan_count == 1
        assert len(window) == 2
        assert window.quantile(1.0) == 2.0  # never poisoned by the NaN


class TestRollingRate:
    def test_rate_over_partial_and_full_window(self):
        rate = RollingRate(4)
        assert rate.rate == 0.0
        rate.push(True)
        assert rate.rate == 1.0
        rate.push(False)
        assert rate.rate == 0.5
        for _ in range(4):
            rate.push(True)
        assert len(rate) == 4
        assert rate.rate == 1.0  # the early False rolled out

    def test_eviction_decrements_true_count(self):
        rate = RollingRate(2)
        rate.push(True)
        rate.push(True)
        rate.push(False)
        assert rate.rate == 0.5

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RollingRate(0)


class TestInterpolatedQuantile:
    def test_matches_numpy_linear_on_random_series(self):
        rng = random.Random(13)
        values = sorted(rng.uniform(-5, 5) for _ in range(37))
        for q in (0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0):
            assert interpolated_quantile(values, q) == pytest.approx(
                float(np.quantile(np.asarray(values), q, method="linear")),
                rel=1e-12)

    def test_single_element(self):
        assert interpolated_quantile([42.0], 0.95) == 42.0

    def test_empty_reports_zero(self):
        assert interpolated_quantile([], 0.5) == 0.0
