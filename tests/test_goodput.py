"""Tests for goodput modeling and batch-plan optimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.goodput import (MAX_ACCUM_STEPS, GoodputModel, GridBatch,
                                best_plans, candidate_grid,
                                candidate_local_sizes)
from repro.perf.throughput import (ThroughputModel, ThroughputParams,
                                   throughput_rows)
from tests.oracle import best_of_grid



class UnitEfficiency(EfficiencyModel):
    """Unit statistical efficiency at every batch size, so goodput equals
    throughput and plans tie often."""

    def __init__(self) -> None:
        super().__init__(EfficiencyParams(grad_noise_scale=1.0,
                                          init_batch_size=1))

    def efficiency(self, total_batch_size: float) -> float:
        return 1.0

    def efficiency_batch(self, total_batch_sizes: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(total_batch_sizes, dtype=float))


PARAMS = ThroughputParams(alpha_c=0.02, beta_c=0.002,
                          alpha_r=0.01, beta_r=0.001,
                          alpha_n=0.08, beta_n=0.008)


@pytest.fixture
def model() -> GoodputModel:
    return GoodputModel(ThroughputModel(PARAMS),
                        EfficiencyModel(EfficiencyParams(400.0, 64)))


class TestCandidateSizes:
    def test_includes_bounds(self):
        sizes = candidate_local_sizes(4, 128)
        assert sizes[0] == 4 and sizes[-1] == 128

    def test_sorted_unique(self):
        sizes = candidate_local_sizes(1, 1000)
        assert sizes == sorted(set(sizes))

    def test_degenerate_range(self):
        assert candidate_local_sizes(8, 8) == [8]

    def test_empty_when_invalid(self):
        assert candidate_local_sizes(10, 5) == []
        assert candidate_local_sizes(0, 5) == []

    @given(lo=st.integers(1, 100), hi=st.integers(1, 10_000))
    def test_all_within_bounds(self, lo, hi):
        for s in candidate_local_sizes(lo, hi):
            assert lo <= s <= hi


class TestEvaluate:
    def test_goodput_is_throughput_times_efficiency(self, model):
        plan = model.evaluate(64, 4, 1)
        assert plan.goodput == pytest.approx(plan.throughput * plan.efficiency)
        assert plan.total_batch_size == 256

    def test_efficiency_penalizes_large_totals(self, model):
        small = model.evaluate(64, 1, 1)
        large = model.evaluate(64, 16, 2)
        assert large.efficiency < small.efficiency


class TestOptimizeBatchSize:
    def test_respects_memory_cap(self, model):
        plan = model.optimize_batch_size(4, 1, max_local_bsz=32,
                                         max_total_bsz=4096)
        assert plan is not None
        assert plan.local_bsz <= 32

    def test_respects_total_cap(self, model):
        plan = model.optimize_batch_size(8, 1, max_local_bsz=512,
                                         max_total_bsz=256)
        assert plan is not None
        assert plan.total_batch_size <= 256

    def test_respects_total_floor(self, model):
        plan = model.optimize_batch_size(1, 1, max_local_bsz=512,
                                         max_total_bsz=4096,
                                         min_total_bsz=64)
        assert plan is not None
        assert plan.total_batch_size >= 64

    def test_uses_accumulation_when_memory_limited(self, model):
        """A tight memory cap with a high efficiency sweet spot forces
        gradient accumulation."""
        tolerant = GoodputModel(
            ThroughputModel(PARAMS),
            EfficiencyModel(EfficiencyParams(100_000.0, 512)))
        plan = tolerant.optimize_batch_size(1, 1, max_local_bsz=64,
                                            max_total_bsz=4096,
                                            min_total_bsz=512)
        assert plan is not None
        assert plan.accum_steps > 1

    def test_infeasible_floor_returns_none(self, model):
        plan = model.optimize_batch_size(1, 1, max_local_bsz=4,
                                         max_total_bsz=64, min_total_bsz=128)
        assert plan is None

    def test_invalid_inputs_return_none(self, model):
        assert model.optimize_batch_size(0, 1, max_local_bsz=8,
                                         max_total_bsz=64) is None
        assert model.optimize_batch_size(2, 1, max_local_bsz=0,
                                         max_total_bsz=64) is None

    def test_fixed_total_plan(self, model):
        plan = model.optimize_batch_size(4, 1, max_local_bsz=512,
                                         max_total_bsz=4096,
                                         fixed_total_bsz=256)
        assert plan is not None
        assert plan.local_bsz * plan.accum_steps * 4 <= 256
        assert plan.total_batch_size <= 256

    def test_fixed_total_smaller_than_gpus_is_infeasible(self, model):
        assert model.optimize_batch_size(8, 1, max_local_bsz=64,
                                         max_total_bsz=4096,
                                         fixed_total_bsz=4) is None

    def test_fixed_total_uses_accumulation_under_memory_pressure(self, model):
        plan = model.optimize_batch_size(1, 1, max_local_bsz=32,
                                         max_total_bsz=4096,
                                         fixed_total_bsz=128)
        assert plan is not None
        assert plan.accum_steps >= 4

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 2, 4, 8]),
           cap=st.integers(8, 256), total=st.integers(64, 2048))
    def test_plan_always_within_limits(self, k, cap, total):
        model = GoodputModel(ThroughputModel(PARAMS),
                             EfficiencyModel(EfficiencyParams(400.0, 64)))
        plan = model.optimize_batch_size(k, 1, max_local_bsz=cap,
                                         max_total_bsz=total)
        if plan is not None:
            assert 1 <= plan.local_bsz <= cap
            assert 1 <= plan.accum_steps <= MAX_ACCUM_STEPS
            assert plan.total_batch_size <= total
            assert plan.goodput > 0

    def test_goodput_convenience_zero_when_infeasible(self, model):
        assert model.goodput(1, 1, max_local_bsz=0, max_total_bsz=64) == 0.0


def batched_goodput(batch: GridBatch, models: list[GoodputModel]):
    """Per-candidate goodput of ``batch``, segment ``s`` on ``models[s]``."""
    gpus = batch.column([k for k, _ in batch.shapes])
    params = [m.throughput_model.params for m in models]
    xput = throughput_rows(
        batch.locals_, batch.accums, gpus,
        batch.column([p.alpha_c for p in params]),
        batch.column([p.beta_c for p in params]),
        batch.column([p.gamma for p in params]),
        batch.column([m.throughput_model.sync_time(n, k)
                      for m, (k, n) in zip(models, batch.shapes)]))
    totals = gpus * batch.locals_ * batch.accums
    eff = np.concatenate([
        m.efficiency_model.efficiency_batch(totals[lo:hi])
        for m, lo, hi in zip(models, batch.bounds, batch.bounds[1:])])
    return xput * eff


class TestGroupedPass:
    """``best_plans`` ranks many concatenated grids in one pass; each
    segment's plan must equal the reference loop on that grid alone."""

    SHAPES = [(1, 1), (2, 1), (8, 1), (16, 2), (4, 1)]

    def grids(self, **limits):
        return [candidate_grid(k, **limits) for k, _ in self.SHAPES]

    def test_segments_match_reference_loop(self, model):
        grids = self.grids(max_local_bsz=64, max_total_bsz=4096,
                           min_total_bsz=64)
        batch = GridBatch([(k, n) for k, n in self.SHAPES], grids)
        models = [model] * len(batch)
        plans = best_plans(batch, batched_goodput(batch, models), models)
        for (k, n), grid, plan in zip(self.SHAPES, grids, plans):
            assert plan == best_of_grid(model, grid[0], k, n)
            assert plan == model.optimize_batch_size(
                k, n, max_local_bsz=64, max_total_bsz=4096,
                min_total_bsz=64)

    def test_segments_keep_their_own_models(self, model):
        """Segments on different throughput and efficiency models, ranked
        together, each equal the reference loop on their own model."""
        other = GoodputModel(
            ThroughputModel(ThroughputParams(
                alpha_c=0.05, beta_c=0.001, alpha_r=0.02, beta_r=0.004,
                alpha_n=0.2, beta_n=0.02, gamma=1.3)),
            EfficiencyModel(EfficiencyParams(5000.0, 128)))
        unit = GoodputModel(model.throughput_model, UnitEfficiency())
        models = [model, other, unit, other, model]
        grids = self.grids(max_local_bsz=64, max_total_bsz=4096)
        batch = GridBatch([(k, n) for k, n in self.SHAPES], grids)
        plans = best_plans(batch, batched_goodput(batch, models), models)
        for (k, n), grid, m, plan in zip(self.SHAPES, grids, models, plans):
            assert plan == best_of_grid(m, grid[0], k, n)

    @pytest.mark.parametrize("poison", [math.nan, math.inf])
    def test_non_finite_segment_falls_back_to_reference(self, model, poison):
        grids = self.grids(max_local_bsz=64, max_total_bsz=4096)
        batch = GridBatch([(k, n) for k, n in self.SHAPES], grids)
        models = [model] * len(batch)
        goodput = batched_goodput(batch, models)
        goodput[batch.bounds[1]] = poison  # poison segment 1 only
        plans = best_plans(batch, goodput, models)
        for (k, n), grid, plan in zip(self.SHAPES, grids, plans):
            assert plan == best_of_grid(model, grid[0], k, n)

    def test_ties_keep_the_first_candidate(self):
        """Every candidate ties: the whole grid is shortlisted and the
        reference loop's first-strictly-greater rule keeps the first."""

        class Flat:
            def throughput(self, local_bsz, num_gpus, num_nodes,
                           accum_steps=1):
                return 100.0

        tied = GoodputModel(Flat(), UnitEfficiency())
        grids = self.grids(max_local_bsz=64, max_total_bsz=4096)
        batch = GridBatch([(k, n) for k, n in self.SHAPES], grids)
        plans = best_plans(batch, np.full(len(batch.locals_), 100.0),
                           [tied] * len(batch))
        for (k, n), grid, plan in zip(self.SHAPES, grids, plans):
            assert (plan.accum_steps, plan.local_bsz) == grid[0][0]
            assert plan == best_of_grid(tied, grid[0], k, n)

    def test_infeasible_grid_is_none(self):
        assert candidate_grid(0, max_local_bsz=8, max_total_bsz=64) is None
        assert candidate_grid(1, max_local_bsz=4, max_total_bsz=64,
                              min_total_bsz=128) is None
        assert candidate_grid(8, max_local_bsz=64, max_total_bsz=4096,
                              fixed_total_bsz=4) is None

    def test_grid_columns_match_pairs(self):
        pairs, accums, locals_ = candidate_grid(
            4, max_local_bsz=32, max_total_bsz=4096, min_total_bsz=256)
        assert list(zip(accums.tolist(), locals_.tolist())) == pairs
        assert np.all(4 * locals_ * accums >= 256)
