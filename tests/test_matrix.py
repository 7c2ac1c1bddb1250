"""Tests for goodput-matrix normalization, restart factor (Equation 3) and
utility shaping (Section 3.4)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.matrix import (apply_restart_discount, config_index,
                               config_index_map, normalize_rows,
                               restart_factor, shape_utilities)
from repro.core.types import Configuration


class TestNormalization:
    def test_row_min_becomes_min_gpus(self):
        out = normalize_rows(np.array([[2.0, 8.0]]), [1])
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(4.0)

    def test_min_gpus_scales_row(self):
        out = normalize_rows(np.array([[2.0, 8.0]]), [4])
        assert out[0, 0] == pytest.approx(4.0)
        assert out[0, 1] == pytest.approx(16.0)

    def test_empty_row_untouched(self):
        out = normalize_rows(np.array([[math.nan, math.nan]]), [1])
        assert np.isnan(out).all()

    def test_nonpositive_marked_infeasible(self):
        """Non-positive and non-finite goodputs are infeasible (nan), and
        the row minimum is taken over the feasible entries only."""
        matrix = np.array([[0.0, -1.0, math.inf, 2.0, 8.0, math.nan],
                           [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        out = normalize_rows(matrix, [1, 1])
        assert np.isnan(out[0, :3]).all() and math.isnan(out[0, 5])
        assert out[0, 3] == 1.0 and out[0, 4] == 4.0
        assert np.isnan(out[1]).all()

    def test_input_not_modified(self):
        matrix = np.array([[0.0, 2.0, 4.0]])
        normalize_rows(matrix, [1])
        assert matrix.tolist() == [[0.0, 2.0, 4.0]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalize_rows(np.array([[1.0]]), [1, 1])

    @given(values=st.lists(st.floats(0.1, 1e4), min_size=1, max_size=8))
    def test_normalized_rows_at_least_min_gpus(self, values):
        out = normalize_rows(np.array([values]), [2])
        finite = out[0][~np.isnan(out[0])]
        assert finite.min() == pytest.approx(2.0)

    @given(values=st.lists(st.floats(0.1, 1e4), min_size=2, max_size=8),
           scale=st.floats(0.5, 100.0))
    def test_scale_invariance(self, values, scale):
        """Normalization makes rows unit-free: scaling all goodputs of a job
        leaves its normalized row unchanged."""
        out1 = normalize_rows(np.array([values]), [1])
        out2 = normalize_rows(np.array([[v * scale for v in values]]), [1])
        np.testing.assert_allclose(out1, out2, rtol=1e-9)


class TestRestartFactor:
    def test_never_started_is_neutral(self):
        assert restart_factor(0.0, 0, 0.0) == 1.0

    def test_young_job_heavily_discounted(self):
        """Equation 3: a 60 s old job with a 100 s restart cost should hate
        restarting."""
        assert restart_factor(60.0, 0, 100.0) < 0.5

    def test_old_job_approaches_one(self):
        assert restart_factor(1e6, 0, 100.0) > 0.99

    def test_restart_history_lowers_factor(self):
        clean = restart_factor(3600.0, 0, 100.0)
        churned = restart_factor(3600.0, 10, 100.0)
        assert churned < clean

    def test_clamped_to_unit_interval(self):
        assert restart_factor(10.0, 100, 100.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            restart_factor(-1.0, 0, 10.0)

    @given(age=st.floats(0, 1e7), restarts=st.integers(0, 100),
           cost=st.floats(0, 1e4))
    def test_always_in_unit_interval(self, age, restarts, cost):
        assert 0.0 <= restart_factor(age, restarts, cost) <= 1.0


class TestRestartDiscount:
    def test_only_non_current_entries_discounted(self):
        matrix = np.array([[2.0, 4.0, 8.0]])
        out = apply_restart_discount(matrix, [1], [0.5])
        assert out[0, 0] == 1.0
        assert out[0, 1] == 4.0  # current config untouched
        assert out[0, 2] == 4.0

    def test_queued_job_not_discounted(self):
        matrix = np.array([[2.0, 4.0]])
        out = apply_restart_discount(matrix, [None], [0.5])
        np.testing.assert_array_equal(out, matrix)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            apply_restart_discount(np.ones((1, 2)), [None, None], [1.0])


class TestShaping:
    def test_positive_p(self):
        matrix = np.array([[1.0, 4.0]])
        out = shape_utilities(matrix, p=0.5, allocation_incentive=1.1)
        assert out[0, 0] == pytest.approx(1.1 + 1.0)
        assert out[0, 1] == pytest.approx(1.1 + 2.0)

    def test_negative_p_preserves_ordering(self):
        """For p < 0 the objective flips; after our negation, better
        configurations must still have larger utility."""
        matrix = np.array([[1.0, 4.0]])
        out = shape_utilities(matrix, p=-0.5, allocation_incentive=1.1)
        assert out[0, 1] > out[0, 0]

    def test_negative_p_allocation_still_attractive(self):
        """With normalized goodputs >= 1 and lambda > 1, every feasible pair
        keeps positive utility so queued jobs get allocated if possible."""
        matrix = np.array([[1.0, 2.0, 16.0]])
        out = shape_utilities(matrix, p=-0.5, allocation_incentive=1.1)
        assert np.all(out[0] > 0)

    def test_p_zero_uniform(self):
        matrix = np.array([[1.0, 4.0]])
        out = shape_utilities(matrix, p=0.0, allocation_incentive=1.1)
        assert out[0, 0] == out[0, 1] == pytest.approx(2.1)

    def test_nan_preserved(self):
        matrix = np.array([[math.nan, 2.0]])
        out = shape_utilities(matrix, p=-0.5, allocation_incentive=1.1)
        assert math.isnan(out[0, 0])

    def test_zero_entry_becomes_infeasible_for_negative_p(self):
        """A zero restart factor zeroes an entry; 0^p is infinite for p<0,
        so the entry must drop out rather than poison the ILP."""
        matrix = np.array([[0.0, 2.0]])
        out = shape_utilities(matrix, p=-0.5, allocation_incentive=1.1)
        assert math.isnan(out[0, 0])
        assert math.isfinite(out[0, 1])

    def test_zeroed_restart_row_drops_out_for_negative_p(self):
        """Regression: a fully-zeroed row (restart factor 0 on a young job)
        must shape to all-nan for p < 0, not to +inf/huge utilities that
        would make the ILP chase a worthless restart."""
        matrix = np.array([[4.0, 2.0]])
        discounted = apply_restart_discount(matrix, [0], [0.0])
        assert discounted[0, 1] == 0.0
        out = shape_utilities(discounted, p=-0.5, allocation_incentive=1.1)
        assert math.isfinite(out[0, 0])  # the kept (current) config survives
        assert math.isnan(out[0, 1])

    def test_zero_entry_dropped_for_positive_p(self):
        """0^p is finite for p > 0, but a zero-goodput entry is still a
        worthless allocation and must not win utility lambda + 0."""
        matrix = np.array([[0.0, 2.0]])
        out = shape_utilities(matrix, p=0.5, allocation_incentive=1.1)
        assert math.isnan(out[0, 0])
        assert math.isfinite(out[0, 1])

    def test_zero_entry_dropped_for_p_zero(self):
        matrix = np.array([[0.0, 2.0, math.nan]])
        out = shape_utilities(matrix, p=0.0, allocation_incentive=1.1)
        assert math.isnan(out[0, 0])
        assert out[0, 1] == pytest.approx(2.1)
        assert math.isnan(out[0, 2])

    def test_rejects_negative_incentive(self):
        with pytest.raises(ValueError):
            shape_utilities(np.ones((1, 1)), p=0.5, allocation_incentive=-1)

    @given(p=st.floats(-1.0, 1.0), values=st.lists(
        st.floats(1.0, 100.0), min_size=2, max_size=6, unique=True))
    def test_ordering_preserved_for_all_p(self, p, values):
        matrix = np.array([sorted(values)])
        out = shape_utilities(matrix, p=p, allocation_incentive=1.1)
        diffs = np.diff(out[0])
        assert np.all(diffs >= -1e-12)


class TestConfigIndex:
    def test_found(self):
        configs = [Configuration(1, 1, "t4"), Configuration(1, 2, "t4")]
        assert config_index(configs, Configuration(1, 2, "t4")) == 1

    def test_none_input(self):
        assert config_index([], None) is None

    def test_missing(self):
        configs = [Configuration(1, 1, "t4")]
        assert config_index(configs, Configuration(1, 8, "a100")) is None

    def test_index_map_agrees_with_list_index(self):
        configs = [Configuration(1, 1, "t4"), Configuration(1, 2, "t4"),
                   Configuration(1, 8, "a100")]
        index_map = config_index_map(configs)
        assert index_map == {c: j for j, c in enumerate(configs)}
        for config in configs + [Configuration(2, 16, "rtx"), None]:
            assert config_index(configs, config, index_map) == \
                config_index(configs, config)
