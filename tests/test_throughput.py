"""Tests for the throughput model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.perf.throughput import (GAMMA, ThroughputModel, ThroughputParams,
                                   perfect_scaling_estimate,
                                   validate_params_finite)

PARAMS = ThroughputParams(alpha_c=0.01, beta_c=0.001,
                          alpha_r=0.005, beta_r=0.0005,
                          alpha_n=0.05, beta_n=0.005)


@pytest.fixture
def model() -> ThroughputModel:
    return ThroughputModel(PARAMS)


class TestGradTime:
    def test_linear_in_batch(self, model):
        assert model.grad_time(100) == pytest.approx(0.01 + 0.1)

    def test_rejects_nonpositive_batch(self, model):
        with pytest.raises(ValueError):
            model.grad_time(0)


class TestSyncTime:
    def test_single_gpu_no_sync(self, model):
        assert model.sync_time(1, 1) == 0.0

    def test_two_gpus_one_node_base_cost(self, model):
        assert model.sync_time(1, 2) == pytest.approx(PARAMS.alpha_r)

    def test_intra_grows_with_gpus(self, model):
        assert model.sync_time(1, 8) > model.sync_time(1, 4) \
            > model.sync_time(1, 2)

    def test_inter_node_more_expensive(self, model):
        assert model.sync_time(2, 8) > model.sync_time(1, 8)

    def test_invalid_shape(self, model):
        with pytest.raises(ValueError):
            model.sync_time(4, 2)  # more nodes than GPUs


class TestIterTime:
    def test_single_gpu_equals_grad_time(self, model):
        assert model.iter_time(64, 1, 1) == pytest.approx(model.grad_time(64))

    def test_gamma_norm_below_sum(self, model):
        """Overlap: combined time is less than grad + sync but more than
        either alone."""
        grad = model.grad_time(64)
        sync = model.sync_time(2, 8)
        combined = model.iter_time(64, 8, 2)
        assert max(grad, sync) < combined < grad + sync

    def test_accumulation_adds_grad_steps(self, model):
        base = model.iter_time(64, 4, 1, accum_steps=1)
        double = model.iter_time(64, 4, 1, accum_steps=2)
        assert double == pytest.approx(base + model.grad_time(64))

    def test_rejects_zero_accum(self, model):
        with pytest.raises(ValueError):
            model.iter_time(64, 4, 1, accum_steps=0)


class TestThroughput:
    def test_scaling_is_sublinear_with_sync_costs(self, model):
        """More GPUs help, but never superlinearly at fixed local batch."""
        x1 = model.throughput(64, 1, 1)
        x4 = model.throughput(64, 4, 1)
        x8 = model.throughput(64, 8, 2)
        assert x1 < x4 < x8 < 8 * x1

    def test_bigger_local_batch_higher_throughput(self, model):
        assert model.throughput(128, 4, 1) > model.throughput(32, 4, 1)

    @given(k=st.integers(1, 32), m=st.integers(1, 512),
           s=st.integers(1, 8))
    def test_positive_and_finite(self, k, m, s):
        model = ThroughputModel(PARAMS)
        n = max(1, k // 8)
        value = model.throughput(m, k, n, s)
        assert value > 0 and math.isfinite(value)

    @given(k=st.integers(2, 32))
    def test_monotone_in_gpus_single_node(self, k):
        model = ThroughputModel(PARAMS)
        assert model.throughput(64, k, 1) >= model.throughput(64, k - 1, 1)


class TestBatched:
    SHAPES = [(1, 1), (1, 2), (1, 8), (2, 8), (4, 32)]

    def test_per_element_shapes_match_scalar(self, model):
        """One call over candidates of mixed (num_gpus, num_nodes) agrees
        with the scalar model candidate by candidate."""
        gpus = np.array([k for _, k in self.SHAPES])
        nodes = np.array([n for n, _ in self.SHAPES])
        local = np.array([16, 32, 64, 8, 128])
        accum = np.array([1, 2, 1, 4, 1])
        xput = model.throughput_batch(local, gpus, nodes, accum)
        for i, (n, k) in enumerate(self.SHAPES):
            assert xput[i] == pytest.approx(
                model.throughput(int(local[i]), k, n, int(accum[i])),
                rel=1e-12)
            assert model.sync_time_batch(nodes, gpus)[i] == \
                model.sync_time(n, k)

    def test_scalar_shape_broadcasts(self, model):
        local = np.array([16, 64])
        assert model.iter_time_batch(local, 8, 2).tolist() == \
            model.iter_time_batch(local, np.array([8, 8]),
                                  np.array([2, 2])).tolist()

    def test_invalid_shape_rejected(self, model):
        with pytest.raises(ValueError):
            model.iter_time_batch(np.array([16, 16]), np.array([2, 2]),
                                  np.array([1, 4]))


class TestParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThroughputParams(-1, 0, 0, 0, 0, 0)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            ThroughputParams(0.1, 0.1, 0, 0, 0, 0, gamma=0.5)

    def test_scaled(self):
        scaled = PARAMS.scaled(2.0)
        assert scaled.alpha_c == pytest.approx(2 * PARAMS.alpha_c)
        assert scaled.beta_n == pytest.approx(2 * PARAMS.beta_n)
        assert scaled.gamma == PARAMS.gamma

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PARAMS.scaled(0.0)

    def test_validate_finite(self):
        assert validate_params_finite(PARAMS)


class TestPerfectScaling:
    def test_linear(self):
        assert perfect_scaling_estimate(10.0, 4) == 40.0

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            perfect_scaling_estimate(10.0, 0)


def test_default_gamma_reasonable():
    assert 1.0 <= GAMMA <= 3.0
