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
from repro.obs.tracer import Tracer
from repro.perf import estimator as estimator_module
from repro.perf.estimator import (JobConstraints, JobPerfEstimator,
                                  goodput_rows, plan_requests)
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


#: One request per estimator case of the round pass: (class, model,
#: profiling mode, fixed total batch size, multi-GPU evidence as
#: ``(gpu_type, num_gpus)`` reports).
ROUND_CASES = {
    "oracle": (JobPerfEstimator, "bert", ProfilingMode.ORACLE, None, ()),
    "boot-0-refs": (JobPerfEstimator, "resnet50", ProfilingMode.BOOTSTRAP,
                    None, ()),
    "boot-1-ref": (JobPerfEstimator, "bert", ProfilingMode.BOOTSTRAP, None,
                   (("rtx", 2), ("rtx", 4))),
    "boot-2-refs": (JobPerfEstimator, "yolov3", ProfilingMode.BOOTSTRAP,
                    None, (("rtx", 2), ("rtx", 4), ("a100", 2), ("a100", 4))),
    "no-prof-prior": (JobPerfEstimator, "bert", ProfilingMode.NO_PROF, None,
                      ()),
    "no-prof-trusted-fit": (JobPerfEstimator, "resnet50",
                            ProfilingMode.NO_PROF, None,
                            (("t4", 1), ("t4", 2), ("t4", 4))),
    "batch-inference": (BatchInferenceEstimator, "bert",
                        ProfilingMode.BOOTSTRAP, None, (("rtx", 2),)),
    "pollux": (PolluxEstimator, "yolov3", None, None,
               (("t4", 1), ("t4", 2), ("t4", 4))),
    "fixed-total": (JobPerfEstimator, "bert", ProfilingMode.BOOTSTRAP, 64,
                    (("rtx", 2),)),
}

#: A shape no fixed-total-64 grid fits (fewer samples than GPUs).
NO_GRID = Configuration(4, 128, "a100")


def build(case: str) -> JobPerfEstimator:
    """A profiled estimator of one ``ROUND_CASES`` case with its evidence."""
    cls, model, mode, fixed, evidence = ROUND_CASES[case]
    profile = profiles.model_profile(model)
    args = (model, JobConstraints(min_bsz=profile.min_bsz,
                                  max_bsz=profile.max_bsz,
                                  fixed_total_bsz=fixed), TYPES)
    est = cls(*args) if mode is None else cls(*args, mode)
    est.profile_initial()
    for gpu_type, k in evidence:
        est.add_observation(true_observation(model, gpu_type, 1, k, 16))
    return est


class TestRoundPass:
    """``plan_requests`` plans the misses of many estimators in one pass;
    every plan and every cache counter must equal each estimator's own
    ``best_plans`` and the per-candidate reference."""

    ROW = [*CONFIGS, NO_GRID]

    def test_branches_cover_the_cases(self):
        branches = {case: {build(case)._cache_token(c.gpu_type,
                                                    c.num_gpus)[0]
                           for c in CONFIGS} for case in ROUND_CASES}
        assert branches["oracle"] == {"oracle"}
        assert branches["no-prof-prior"] == {"prior"}
        assert branches["pollux"] == {"fit"}
        assert "boot" in branches["boot-0-refs"]
        assert {"boot", "fit"} <= branches["boot-1-ref"]
        refs = {case: len(build(case)._branch_model("boot", "t4").refs)
                for case in ("boot-0-refs", "boot-1-ref", "boot-2-refs")}
        assert refs == {"boot-0-refs": 0, "boot-1-ref": 1, "boot-2-refs": 2}

    def test_mixed_request_matches_each_estimator(self):
        together = {case: build(case) for case in ROUND_CASES}
        alone = {case: build(case) for case in ROUND_CASES}
        reference = {case: build(case) for case in ROUND_CASES}
        for _ in range(2):  # all misses, then all hits
            results = plan_requests([(est, self.ROW)
                                     for est in together.values()])
            for case, plans in zip(ROUND_CASES, results):
                assert plans == alone[case].best_plans(self.ROW), case
                assert plans == [reference_plan(reference[case], config)
                                 for config in self.ROW], case
                assert (together[case].cache_hits,
                        together[case].cache_misses) == \
                    (alone[case].cache_hits, alone[case].cache_misses), case
        assert all(est.cache_hits == est.cache_misses == len(self.ROW)
                   for est in together.values())
        assert together["fixed-total"].best_plan(NO_GRID) is None

    def test_goodput_rows_keep_every_estimator_kind(self):
        """``goodput_rows`` answers hybrid and latency-SLO rows with their
        own ``goodput_batch`` and the rest from the shared pass, in
        request order."""
        from repro.jobs.hybrid import HybridPerfEstimator
        ests = [build("boot-1-ref"),
                HybridPerfEstimator("gpt-2.8b", HybridSpec()),
                build("oracle"), LatencySLOEstimator("bert", 0.05, TYPES)]
        alone = [build("boot-1-ref"), ests[1], build("oracle"), ests[3]]
        rows = goodput_rows([(est, self.ROW) for est in ests])
        assert [row.tolist() for row in rows] == \
            [est.goodput_batch(self.ROW).tolist() for est in alone]

    def test_span_counts_segments_and_candidates(self):
        tracer = Tracer()
        ests = [build("fixed-total"), build("oracle")]
        grids = [candidate_grid(
            c.num_gpus, max_local_bsz=est.max_local_bsz(c.gpu_type),
            max_total_bsz=est.constraints.max_bsz,
            min_total_bsz=est.constraints.min_bsz,
            fixed_total_bsz=est.constraints.fixed_total_bsz)
            for est in ests for c in self.ROW]
        for _ in range(2):
            with tracer.span("goodput_eval") as span:
                plan_requests([(est, self.ROW) for est in ests], span)
        first, second = (record.attrs for record in tracer.spans)
        assert first == {
            "planned": sum(grid is not None for grid in grids),
            "candidates": sum(len(grid[0]) for grid in grids
                              if grid is not None)}
        assert second == {"planned": 0, "candidates": 0}


def use_reference_loop(monkeypatch) -> list:
    """Route every estimator query through the per-configuration loop;
    returns the list of requests the round pass was asked for."""
    calls = []

    def reference_requests(requests, span=None, memo=None):
        calls.extend(requests)
        return [[reference_plan(est, config) for config in configs]
                for est, configs in requests]

    monkeypatch.setattr(JobPerfEstimator, "goodput_batch",
                        reference_goodput_batch)
    monkeypatch.setattr(JobPerfEstimator, "best_plan", reference_plan)
    monkeypatch.setattr(estimator_module, "plan_requests",
                        reference_requests)
    return calls


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

    def test_decide_annotates_goodput_eval(self):
        """The round's ``goodput_eval`` span says how much goodput work it
        did: a cold round misses, refits and plans, a repeated round only
        hits."""
        cluster = presets.heterogeneous()
        scheduler = SiaScheduler()
        scheduler.tracer = Tracer()
        views = self.make_views(cluster)
        for now in (0.0, 60.0):
            scheduler.decide(views, cluster, {}, now)
        cold, warm = (span.attrs for span in scheduler.tracer.spans
                      if span.name == "goodput_eval")
        assert cold["hits"] == 0
        assert cold["misses"] == sum(
            view.estimator.cache_misses for view in views)
        assert 0 < cold["planned"] <= cold["misses"]
        assert cold["candidates"] > cold["planned"]
        # Profiling dirtied every type of every job; each refits once.
        assert cold["refits"] == cold["moved"] == \
            len(views) * len(cluster.gpu_types)
        assert warm == {"jobs": len(views), "configs": cold["configs"],
                        "hits": cold["misses"], "misses": 0, "shared": 0,
                        "planned": 0, "candidates": 0, "refits": 0,
                        "moved": 0}

    def test_decide_identical_assignments(self, monkeypatch):
        cluster = presets.heterogeneous()
        grouped = self.decide(cluster)
        with monkeypatch.context() as patch:
            calls = use_reference_loop(patch)
            reference = self.decide(cluster)
        # The reference loop rated every job's row, so the comparison is
        # not the grouped pass against itself.
        assert len(calls) == 12 and all(configs for _, configs in calls)
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
