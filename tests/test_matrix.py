"""Tests for goodput normalization, restart factor (Equation 3) and
utility shaping (Section 3.4), on compact rows: each job's feasible
entries only, scattered once into the dense matrix the ILP reads."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.matrix import (apply_health_discount, apply_restart_discount,
                               normalize_rows, restart_factor,
                               shape_utilities)
from tests.oracle import (dense_health_discount, dense_normalize_rows,
                          dense_restart_discount, dense_shape_utilities)


def compact(matrix, feasible=None):
    """``(values, rows, cols)`` of a dense matrix: each row's ``feasible``
    columns (default: every column), row by row."""
    matrix = np.asarray(matrix, dtype=float)
    if feasible is None:
        feasible = [range(matrix.shape[1])] * matrix.shape[0]
    rows = np.repeat(np.arange(len(feasible), dtype=np.intp),
                     [len(c) for c in feasible])
    cols = np.array([j for c in feasible for j in c], dtype=np.intp)
    return matrix[rows, cols], rows, cols


def scatter(values, rows, cols, shape):
    """The dense matrix holding ``values`` at ``(rows, cols)``, nan
    elsewhere, as Sia writes the utilities the ILP reads."""
    out = np.full(shape, math.nan)
    out[rows, cols] = values
    return out


def normalized(matrix, min_gpus):
    values, rows, _ = compact(matrix)
    return normalize_rows(values, rows, min_gpus)


class TestNormalization:
    def test_row_min_becomes_min_gpus(self):
        out = normalized([[2.0, 8.0]], [1])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(4.0)

    def test_min_gpus_scales_row(self):
        out = normalized([[2.0, 8.0]], [4])
        assert out[0] == pytest.approx(4.0)
        assert out[1] == pytest.approx(16.0)

    def test_empty_row_untouched(self):
        out = normalized([[math.nan, math.nan]], [1])
        assert np.isnan(out).all()

    def test_row_without_entries(self):
        """A job with no feasible column has no entries; the rows around
        it normalize as they would alone."""
        values, rows, _ = compact([[2.0], [5.0], [4.0]], [[0], [], [0]])
        out = normalize_rows(values, rows, [1, 7, 3])
        assert out.tolist() == [1.0, 3.0]

    def test_nonpositive_marked_infeasible(self):
        """Non-positive and non-finite goodputs are infeasible (nan), and
        the row minimum is taken over the feasible entries only."""
        matrix = np.array([[0.0, -1.0, math.inf, 2.0, 8.0, math.nan],
                           [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        out = normalized(matrix, [1, 1]).reshape(matrix.shape)
        assert np.isnan(out[0, :3]).all() and math.isnan(out[0, 5])
        assert out[0, 3] == 1.0 and out[0, 4] == 4.0
        assert np.isnan(out[1]).all()

    def test_input_not_modified(self):
        values = np.array([0.0, 2.0, 4.0])
        normalize_rows(values, np.zeros(3, dtype=np.intp), [1])
        assert values.tolist() == [0.0, 2.0, 4.0]

    def test_length_mismatch(self):
        """An entry in a row past the per-job inputs is refused."""
        with pytest.raises(ValueError):
            normalize_rows(np.array([1.0, 1.0]), np.array([0, 1]), [1])

    @given(values=st.lists(st.floats(0.1, 1e4), min_size=1, max_size=8))
    def test_normalized_rows_at_least_min_gpus(self, values):
        out = normalized([values], [2])
        finite = out[~np.isnan(out)]
        assert finite.min() == pytest.approx(2.0)

    @given(values=st.lists(st.floats(0.1, 1e4), min_size=2, max_size=8),
           scale=st.floats(0.5, 100.0))
    def test_scale_invariance(self, values, scale):
        """Normalization makes rows unit-free: scaling all goodputs of a job
        leaves its normalized row unchanged."""
        out1 = normalized([values], [1])
        out2 = normalized([[v * scale for v in values]], [1])
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
        values, rows, cols = compact([[2.0, 4.0, 8.0]])
        out = apply_restart_discount(values, rows, cols, [1], [0.5])
        assert out[0] == 1.0
        assert out[1] == 4.0  # current config untouched
        assert out[2] == 4.0

    def test_queued_job_not_discounted(self):
        values, rows, cols = compact([[2.0, 4.0]])
        out = apply_restart_discount(values, rows, cols, [None], [0.5])
        np.testing.assert_array_equal(out, values)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            apply_restart_discount(*compact(np.ones((1, 2))), [None, None],
                                   [1.0])


class TestShaping:
    def test_positive_p(self):
        out = shape_utilities(np.array([1.0, 4.0]), p=0.5,
                              allocation_incentive=1.1)
        assert out[0] == pytest.approx(1.1 + 1.0)
        assert out[1] == pytest.approx(1.1 + 2.0)

    def test_negative_p_preserves_ordering(self):
        """For p < 0 the objective flips; after our negation, better
        configurations must still have larger utility."""
        out = shape_utilities(np.array([1.0, 4.0]), p=-0.5,
                              allocation_incentive=1.1)
        assert out[1] > out[0]

    def test_negative_p_allocation_still_attractive(self):
        """With normalized goodputs >= 1 and lambda > 1, every feasible pair
        keeps positive utility so queued jobs get allocated if possible."""
        out = shape_utilities(np.array([1.0, 2.0, 16.0]), p=-0.5,
                              allocation_incentive=1.1)
        assert np.all(out > 0)

    def test_p_zero_uniform(self):
        out = shape_utilities(np.array([1.0, 4.0]), p=0.0,
                              allocation_incentive=1.1)
        assert out[0] == out[1] == pytest.approx(2.1)

    def test_nan_preserved(self):
        out = shape_utilities(np.array([math.nan, 2.0]), p=-0.5,
                              allocation_incentive=1.1)
        assert math.isnan(out[0])

    def test_zero_entry_becomes_infeasible_for_negative_p(self):
        """A zero restart factor zeroes an entry; 0^p is infinite for p<0,
        so the entry must drop out rather than poison the ILP."""
        out = shape_utilities(np.array([0.0, 2.0]), p=-0.5,
                              allocation_incentive=1.1)
        assert math.isnan(out[0])
        assert math.isfinite(out[1])

    def test_zeroed_restart_row_drops_out_for_negative_p(self):
        """Regression: a fully-zeroed row (restart factor 0 on a young job)
        must shape to all-nan for p < 0, not to +inf/huge utilities that
        would make the ILP chase a worthless restart."""
        values, rows, cols = compact([[4.0, 2.0]])
        discounted = apply_restart_discount(values, rows, cols, [0], [0.0])
        assert discounted[1] == 0.0
        out = shape_utilities(discounted, p=-0.5, allocation_incentive=1.1)
        assert math.isfinite(out[0])  # the kept (current) config survives
        assert math.isnan(out[1])

    def test_zero_entry_dropped_for_positive_p(self):
        """0^p is finite for p > 0, but a zero-goodput entry is still a
        worthless allocation and must not win utility lambda + 0."""
        out = shape_utilities(np.array([0.0, 2.0]), p=0.5,
                              allocation_incentive=1.1)
        assert math.isnan(out[0])
        assert math.isfinite(out[1])

    def test_zero_entry_dropped_for_p_zero(self):
        out = shape_utilities(np.array([0.0, 2.0, math.nan]), p=0.0,
                              allocation_incentive=1.1)
        assert math.isnan(out[0])
        assert out[1] == pytest.approx(2.1)
        assert math.isnan(out[2])

    def test_rejects_negative_incentive(self):
        with pytest.raises(ValueError):
            shape_utilities(np.ones(1), p=0.5, allocation_incentive=-1)

    @given(p=st.floats(-1.0, 1.0), values=st.lists(
        st.floats(1.0, 100.0), min_size=2, max_size=6, unique=True))
    def test_ordering_preserved_for_all_p(self, p, values):
        out = shape_utilities(np.array(sorted(values)), p=p,
                              allocation_incentive=1.1)
        diffs = np.diff(out)
        assert np.all(diffs >= -1e-12)


class TestHealthDiscount:
    def test_scales_each_entry_by_its_column_type(self):
        values, _, cols = compact([[2.0, 4.0, 8.0]])
        out = apply_health_discount(values, cols, ["t4", "rtx", "t4"],
                                    {"t4": 0.5})
        assert out.tolist() == [1.0, 4.0, 4.0]

    def test_no_discount_returns_the_input(self):
        values, _, cols = compact([[2.0, 4.0]])
        for discounts in ({}, {"rtx": 1.0}, {"v100": 0.5}):
            assert apply_health_discount(values, cols, ["t4", "t4"],
                                         discounts) is values

    def test_rejects_out_of_range_factors_and_columns(self):
        values, _, cols = compact([[2.0, 4.0]])
        with pytest.raises(ValueError):
            apply_health_discount(values, cols, ["t4", "t4"], {"t4": 0.0})
        with pytest.raises(ValueError):
            apply_health_discount(values, cols, ["t4"], {"t4": 0.5})


#: raw goodputs, including every kind the pipeline must mark infeasible.
RAW = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf,
                                 -1.0, 1e-300, 1e300]),
                st.floats(-10.0, 1e6, allow_nan=False))
TYPES = ["t4", "rtx", "a100"]


@st.composite
def rounds(draw):
    """One round's inputs: per job its feasible columns (maybe none), raw
    goodputs, minimum GPUs, current column (None, one of its columns or
    one it cannot use) and restart factor; per column a GPU type; and
    health discounts (maybe none)."""
    n_cols = draw(st.integers(1, 8))
    n_rows = draw(st.integers(0, 6))
    feasible = [sorted(draw(st.sets(st.integers(0, n_cols - 1))))
                for _ in range(n_rows)]
    matrix = np.full((n_rows, n_cols), math.nan)
    for i, cols in enumerate(feasible):
        for j in cols:
            matrix[i, j] = draw(RAW)
    current = [draw(st.one_of(st.none(), st.integers(0, n_cols - 1)))
               for _ in range(n_rows)]
    factors = [draw(st.one_of(st.sampled_from([0.0, 1.0]),
                              st.floats(0.0, 1.0))) for _ in range(n_rows)]
    min_gpus = [draw(st.integers(1, 8)) for _ in range(n_rows)]
    types = [draw(st.sampled_from(TYPES)) for _ in range(n_cols)]
    discounts = draw(st.one_of(
        st.just({}), st.dictionaries(st.sampled_from(TYPES),
                                     st.floats(0.01, 1.0), max_size=3)))
    return matrix, feasible, current, factors, min_gpus, types, discounts


class TestCompactMatchesDense:
    """The compact pipeline, scattered, is the dense pipeline
    (``tests/oracle.py``) bit for bit, nan for nan."""

    @given(case=rounds(),
           p=st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       st.floats(-2.0, 2.0)),
           incentive=st.floats(0.0, 2.0))
    def test_utilities_equal_the_dense_reference(self, case, p, incentive):
        matrix, feasible, current, factors, min_gpus, types, discounts = case
        values, rows, cols = compact(matrix, feasible)
        # Extreme goodputs overflow to inf on both sides alike.
        with np.errstate(over="ignore", invalid="ignore"):
            dense = dense_shape_utilities(
                dense_health_discount(
                    dense_restart_discount(
                        dense_normalize_rows(matrix, min_gpus), current,
                        factors),
                    types, discounts),
                p=p, allocation_incentive=incentive)
            shaped = shape_utilities(
                apply_health_discount(
                    apply_restart_discount(
                        normalize_rows(values, rows, min_gpus), rows, cols,
                        current, factors),
                    cols, types, discounts),
                p=p, allocation_incentive=incentive)
        assert np.array_equal(scatter(shaped, rows, cols, matrix.shape),
                              dense, equal_nan=True)
