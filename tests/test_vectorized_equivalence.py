"""The grouped goodput pass must be *exactly* equivalent to the
per-candidate reference loop: same batch plans, same goodput numbers, same
policy decisions.  Seeded end-to-end schedules are pinned by
``tests/test_golden.py``.

``JobPerfEstimator.goodput_batch`` concatenates the candidate grids of all
its cache misses, ranks them with numpy and then re-evaluates each grid's
shortlist of maxima through the scalar path (see ``repro.perf.goodput``),
so equality here is bitwise, not approximate.  The reference is
``tests.oracle.best_of_grid`` on one configuration's grid, with throughput
from ``tests.oracle.ReferenceThroughput``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cluster import presets
from repro.core.types import Configuration, ProfilingMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.inference import BatchInferenceEstimator, LatencySLOEstimator
from repro.perf import profiles
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import Observation
from repro.perf.goodput import GoodputModel, candidate_grid
from repro.perf.throughput import ThroughputModel
from repro.schedulers.base import JobView
from repro.schedulers.pollux import PolluxEstimator
from repro.schedulers.sia import SiaScheduler
from repro.workloads import helios_trace
from tests.oracle import ReferenceThroughput, best_of_grid

TYPES = ("t4", "rtx", "a100")

#: representative allocation shapes across all three types.
CONFIGS = [Configuration(n, k, t)
           for t in TYPES
           for n, k in ((1, 1), (1, 2), (1, 4), (1, 8), (2, 16), (4, 32))]


def reference_plan(est: JobPerfEstimator, config: Configuration):
    """One configuration through the per-candidate scalar loop."""
    limits = est.constraints
    grid = candidate_grid(config.num_gpus,
                          max_local_bsz=est.max_local_bsz(config.gpu_type),
                          max_total_bsz=limits.max_bsz,
                          min_total_bsz=limits.min_bsz,
                          fixed_total_bsz=limits.fixed_total_bsz)
    if grid is None:
        return None
    model = GoodputModel(ReferenceThroughput(est, config.gpu_type),
                         est.efficiency_model)
    return best_of_grid(model, grid[0], config.num_gpus, config.num_nodes)


def reference_goodput_batch(est: JobPerfEstimator, configs):
    """A per-configuration reference loop in place of the grouped pass."""
    plans = [reference_plan(est, config) for config in configs]
    return np.array([plan.goodput if plan is not None else 0.0
                     for plan in plans])


def make_pair(mode, model="bert", *, fixed_total_bsz=None,
              cls=JobPerfEstimator):
    """A (reference, grouped) estimator pair fed identical evidence
    (``mode`` None for an estimator without profiling modes)."""
    profile = profiles.model_profile(model)
    constraints = JobConstraints(min_bsz=profile.min_bsz,
                                 max_bsz=profile.max_bsz,
                                 fixed_total_bsz=fixed_total_bsz)
    args = (model, constraints, TYPES)
    if mode is not None:
        args += (mode,)
    pair = (cls(*args), cls(*args))
    for est in pair:
        est.profile_initial()
    return pair


def true_observation(model, gpu_type, n, k, m, s=1) -> Observation:
    true_model = ThroughputModel(
        profiles.true_throughput_params(model, gpu_type))
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=s,
                       iter_time=true_model.iter_time(m, k, n, s))


def feed(estimators, model):
    for est in estimators:
        for k in (2, 4):
            est.add_observation(true_observation(model, "rtx", 1, k, 16))


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("mode", list(ProfilingMode))
    @pytest.mark.parametrize("model", ["bert", "resnet50", "yolov3"])
    def test_best_plan_identical(self, mode, model):
        reference, grouped = make_pair(mode, model)
        feed((reference, grouped), model)
        for config in CONFIGS:
            a = reference_plan(reference, config)
            b = grouped.best_plan(config)
            assert a == b, f"{mode} {model} {config}: {a} != {b}"

    @pytest.mark.parametrize("mode", list(ProfilingMode))
    def test_rigid_fixed_total_identical(self, mode):
        reference, grouped = make_pair(mode, "bert", fixed_total_bsz=64)
        plans = grouped.best_plans(CONFIGS)
        for config, plan in zip(CONFIGS, plans):
            assert reference_plan(reference, config) == plan

    def test_goodput_batch_matches_scalar_goodput(self):
        """One grouped row over every branch (fit, bootstrap, perfect
        scaling, prior, oracle) equals the reference row, and the cached
        second call returns the same row from hits alone."""
        for mode in ProfilingMode:
            reference, grouped = make_pair(mode)
            # Without multi-GPU evidence multi-GPU rows assume perfect
            # scaling; with rtx evidence they bootstrap from rtx.
            assert grouped.goodput_batch(CONFIGS).tolist() == \
                reference_goodput_batch(reference, CONFIGS).tolist()
            feed((reference, grouped), "bert")
            expected = reference_goodput_batch(reference, CONFIGS).tolist()
            assert grouped.goodput_batch(CONFIGS).tolist() == expected
            misses = grouped.cache_misses
            assert grouped.goodput_batch(CONFIGS).tolist() == expected
            assert grouped.cache_misses == misses

    @pytest.mark.parametrize("model", ["bert", "resnet50", "yolov3"])
    def test_pollux_best_plans_identical(self, model):
        """Pollux's estimator trusts its one type-blind fit at every GPU
        count; the reference routes through the same ``_trusts_fit``."""
        reference, grouped = make_pair(None, model, cls=PolluxEstimator)
        for counts in ((), (1,), (2, 4)):  # prior, 1-GPU-only fit, full fit
            for est, k in itertools.product((reference, grouped), counts):
                est.add_observation(true_observation(model, "t4", 1, k, 16))
            assert grouped.best_plans(CONFIGS) == \
                [reference_plan(reference, config) for config in CONFIGS]

    @pytest.mark.parametrize("mode", list(ProfilingMode))
    def test_batch_inference_best_plans_identical(self, mode):
        """Unit efficiency (``ConstantEfficiency``) makes goodput equal
        throughput, so ties between plans are common."""
        reference, grouped = make_pair(mode, cls=BatchInferenceEstimator)
        assert grouped.best_plans(CONFIGS) == \
            [reference_plan(reference, config) for config in CONFIGS]
        feed((reference, grouped), "bert")
        assert grouped.best_plans(CONFIGS) == \
            [reference_plan(reference, config) for config in CONFIGS]

    def test_hybrid_goodput_batch_matches_scalar(self):
        from repro.jobs.hybrid import HybridPerfEstimator
        est = HybridPerfEstimator("gpt-2.8b", HybridSpec())
        values = est.goodput_batch(CONFIGS)
        for config, value in zip(CONFIGS, values):
            assert float(value) == est.goodput(config)

    def test_latency_slo_goodput_batch_matches_scalar(self):
        est = LatencySLOEstimator("bert", 0.05, TYPES)
        values = est.goodput_batch(CONFIGS)
        for config, value in zip(CONFIGS, values):
            assert float(value) == est.goodput(config)


def use_reference_loop(monkeypatch) -> None:
    """Route every estimator query through the per-configuration loop."""
    monkeypatch.setattr(JobPerfEstimator, "goodput_batch",
                        reference_goodput_batch)
    monkeypatch.setattr(JobPerfEstimator, "best_plan", reference_plan)


class TestPolicyEquivalence:
    def make_views(self, cluster, n_jobs=12):
        trace = helios_trace(seed=11, num_jobs=n_jobs)
        views = []
        for job in trace.jobs:
            profile = job.profile
            constraints = JobConstraints(min_bsz=profile.min_bsz,
                                         max_bsz=profile.max_bsz)
            est = JobPerfEstimator(job.model_name, constraints,
                                   cluster.gpu_types,
                                   ProfilingMode.BOOTSTRAP)
            est.profile_initial()
            views.append(JobView(job=job, estimator=est,
                                 current_config=None, age=0.0,
                                 num_restarts=0, progress=0.0))
        return views

    def decide(self, cluster):
        return SiaScheduler().decide(self.make_views(cluster), cluster, {},
                                     0.0)

    def test_decide_identical_assignments(self, monkeypatch):
        cluster = presets.heterogeneous()
        grouped = self.decide(cluster)
        with monkeypatch.context() as patch:
            use_reference_loop(patch)
            reference = self.decide(cluster)
        assert reference.allocations == grouped.allocations
        assert reference.objective == pytest.approx(grouped.objective)
        assert reference.estimates == grouped.estimates


class TestConfigCacheSignature:
    def test_structurally_equal_clusters_share_cache(self):
        policy = SiaScheduler()
        a = presets.heterogeneous()
        b = presets.heterogeneous()
        assert a is not b
        configs = policy.configurations(a, max_gpus=64)
        assert policy.configurations(b, max_gpus=64) is configs

    def test_different_structure_misses(self):
        policy = SiaScheduler()
        small = presets.heterogeneous()
        large = small.scaled(2)
        first = policy.configurations(small, max_gpus=64)
        second = policy.configurations(large, max_gpus=64)
        assert first is not second
        assert len(second) > len(first)

    def test_max_gpus_partitions_cache(self):
        policy = SiaScheduler()
        cluster = presets.heterogeneous()
        wide = policy.configurations(cluster, max_gpus=64)
        narrow = policy.configurations(cluster, max_gpus=4)
        assert max(c.num_gpus for c in narrow) <= 4
        assert len(wide) > len(narrow)
        # Both keys stay cached side by side.
        assert policy.configurations(cluster, max_gpus=64) is wide
        assert policy.configurations(cluster, max_gpus=4) is narrow
