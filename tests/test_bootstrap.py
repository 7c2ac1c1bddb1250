"""Tests for Equation (1) cross-GPU-type bootstrapping."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.bootstrap import (BootstrapModel, bootstrap_ratio,
                                  bootstrap_rows, bootstrap_throughput)
from repro.core.types import ProfilingMode
from repro.perf import profiles
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import Observation
from repro.perf.throughput import ThroughputModel


class TestRatio:
    def test_ratio(self):
        assert bootstrap_ratio(20.0, 10.0) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bootstrap_ratio(0.0, 10.0)
        with pytest.raises(ValueError):
            bootstrap_ratio(10.0, 0.0)


class TestEquation1:
    def test_paper_formula(self):
        """est_xput_B(N) = xput_B(1)/xput_A(1) * xput_A(N)."""
        assert bootstrap_throughput(30.0, 10.0, 80.0) == pytest.approx(240.0)

    def test_identity_when_types_equal(self):
        assert bootstrap_throughput(10.0, 10.0, 55.0) == pytest.approx(55.0)

    def test_rejects_negative_reference(self):
        with pytest.raises(ValueError):
            bootstrap_throughput(10.0, 10.0, -1.0)

    @given(b1=st.floats(0.1, 1e3), a1=st.floats(0.1, 1e3),
           an=st.floats(0.0, 1e5))
    def test_scales_linearly_in_reference(self, b1, a1, an):
        single = bootstrap_throughput(b1, a1, an)
        double = bootstrap_throughput(b1, a1, 2 * an)
        assert double == pytest.approx(2 * single, rel=1e-9)


class Rate:
    """A throughput model with fixed 1-GPU and multi-GPU rates."""

    def __init__(self, single: float, multi: float):
        self.single, self.multi = single, multi

    def throughput(self, local_bsz, num_gpus, num_nodes, accum_steps=1):
        return self.single if num_gpus == 1 else self.multi


def rows(rate: Rate, count: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """``count`` candidate rows of one rate: its (single, multi) arrays."""
    return np.full(count, rate.single), np.full(count, rate.multi)


def four_gpu_estimate(model: BootstrapModel) -> float:
    """The 4-GPU estimate, checked equal on the scalar and per-row paths."""
    scalar = model.throughput(16, 4, 1)
    own_single = rows(model.own)[0]
    assert bootstrap_rows(own_single, [rows(ref) for ref in model.refs],
                          4).tolist() == [scalar, scalar]
    return scalar


class TestBootstrapModel:
    def test_fastest_reference(self):
        model = BootstrapModel(Rate(10.0, 0.0), [
            Rate(20.0, 60.0), Rate(40.0, 100.0), Rate(30.0, 200.0)])
        assert four_gpu_estimate(model) == 10.0 / 40.0 * 100.0

    def test_first_reference_wins_ties(self):
        model = BootstrapModel(Rate(10.0, 0.0), [
            Rate(20.0, 60.0), Rate(20.0, 100.0)])
        assert four_gpu_estimate(model) == 10.0 / 20.0 * 60.0

    def test_perfect_scaling_without_positive_reference(self):
        own = Rate(10.0, 0.0)
        assert four_gpu_estimate(BootstrapModel(own, [])) == 40.0
        assert four_gpu_estimate(
            BootstrapModel(own, [Rate(0.0, 50.0)])) == 40.0

    def test_rows_with_fewer_references_pad_with_nan(self):
        """Rows of models with different reference lists share slots: a
        NaN slot never wins, so every row equals its own model's scalar
        estimate, ties still going to the first listed reference."""
        own = Rate(10.0, 0.0)
        models = [BootstrapModel(own, [Rate(20.0, 60.0), Rate(40.0, 100.0)]),
                  BootstrapModel(own, [Rate(20.0, 60.0), Rate(20.0, 90.0)]),
                  BootstrapModel(own, [Rate(20.0, 60.0)]),
                  BootstrapModel(own, [])]
        missing = Rate(math.nan, math.nan)
        slots = [[model.refs[r] if r < len(model.refs) else missing
                  for model in models] for r in range(2)]
        refs = [(np.array([ref.single for ref in slot]),
                 np.array([ref.multi for ref in slot])) for slot in slots]
        assert bootstrap_rows(np.full(4, own.single), refs, 4).tolist() == \
            [model.throughput(16, 4, 1) for model in models] == \
            [25.0, 30.0, 30.0, 40.0]

    def test_reference_needs_single_gpu_data(self):
        """A type the job ran only multi-GPU on is no Equation (1)
        reference: its 1-GPU rate is unknown."""
        profile = profiles.model_profile("bert")
        est = JobPerfEstimator(
            "bert", JobConstraints(profile.min_bsz, profile.max_bsz),
            ("t4", "rtx"), ProfilingMode.NO_PROF)
        for gpu_type, k in (("t4", 1), ("rtx", 2), ("rtx", 4)):
            truth = ThroughputModel(
                profiles.true_throughput_params("bert", gpu_type))
            est.add_observation(Observation(
                gpu_type=gpu_type, num_nodes=1, num_gpus=k, local_bsz=16,
                accum_steps=1, iter_time=truth.iter_time(16, k, 1)))
        assert est._branch("t4", 4) == "boot"
        assert est._branch_model("boot", "t4").refs == []
        assert est.throughput("t4", 16, 4, 1) == \
            4 * est.throughput("t4", 16, 1, 1)
