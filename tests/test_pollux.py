"""Tests for the Pollux baseline: type-blind estimator, GA, mixed-type
fix-up heuristic (Section 4.3)."""

import numpy as np
import pytest

from repro.core.types import Configuration, ProfilingMode
from repro.jobs.job import make_job
from repro.perf import profiles
from repro.perf.estimator import JobConstraints
from repro.perf.fitting import Observation
from repro.perf.throughput import ThroughputModel
from repro.schedulers.base import JobView
from repro.schedulers.pollux import (GAParams, PolluxEstimator,
                                     PolluxScheduler, VIRTUAL_NODE_SIZE)

TYPES = ("t4", "rtx", "a100")


def make_estimator(model="bert") -> PolluxEstimator:
    profile = profiles.model_profile(model)
    return PolluxEstimator(model, JobConstraints(profile.min_bsz,
                                                 profile.max_bsz), TYPES)


def true_obs(model, gpu_type, n, k, m) -> Observation:
    true_model = ThroughputModel(profiles.true_throughput_params(model, gpu_type))
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=1,
                       iter_time=true_model.iter_time(m, k, n))


def view_for(job, cluster, *, current=None, age=3600.0) -> JobView:
    scheduler = PolluxScheduler()
    estimator = scheduler.make_estimator(job, cluster,
                                         ProfilingMode.BOOTSTRAP)
    # Seed with one observation so speedup tables are meaningful.
    estimator.add_observation(true_obs(job.model_name, "t4", 1, 1, 16))
    return JobView(job=job, estimator=estimator, current_config=current,
                   age=age, num_restarts=0, progress=0.0)


def node_types(cluster) -> dict[int, str]:
    return {n.node_id: n.gpu_type for n in cluster.nodes}


class TestPolluxEstimator:
    def test_no_initial_profiling(self):
        est = make_estimator()
        assert est.profile_initial() == 0.0

    def test_type_blindness_conflates_measurements(self):
        """Observations from different GPU types feed one model: after
        seeing both t4 and a100 data, predictions sit between the two —
        the 'noisy estimator' behaviour the paper describes."""
        est = make_estimator()
        est.add_observation(true_obs("bert", "t4", 1, 1, 16))
        est.add_observation(true_obs("bert", "a100", 1, 1, 16))
        blended = est.best_plan(Configuration(1, 1, "t4"))
        t4_truth = ThroughputModel(
            profiles.true_throughput_params("bert", "t4")).throughput(16, 1, 1)
        a100_truth = ThroughputModel(
            profiles.true_throughput_params("bert", "a100")).throughput(16, 1, 1)
        assert blended is not None
        assert t4_truth < blended.throughput < a100_truth

    def test_memory_cap_is_conservative(self):
        est = make_estimator()
        smallest = min(profiles.max_local_bsz("bert", t) for t in TYPES)
        assert est.max_local_bsz() == min(smallest, 384)

    def test_goodput_config_protocol(self):
        est = make_estimator()
        est.add_observation(true_obs("bert", "t4", 1, 1, 16))
        assert est.goodput(Configuration(1, 2, "t4")) > 0

    def test_cache_invalidation(self):
        est = make_estimator()
        est.add_observation(true_obs("bert", "t4", 1, 1, 16))
        before = est.best_plan(Configuration(1, 4, "t4"))
        est.add_observation(true_obs("bert", "t4", 1, 4, 16))
        after = est.best_plan(Configuration(1, 4, "t4"))
        assert after.goodput != before.goodput


class TestGA:
    def test_capacity_respected(self, hetero_cluster):
        scheduler = PolluxScheduler(GAParams(population=12, generations=5))
        views = [view_for(make_job(f"j{i}", "resnet18", 0.0), hetero_cluster)
                 for i in range(20)]
        plan = scheduler.decide(views, hetero_cluster, {}, 0.0)
        plan.validate(hetero_cluster)
        total = sum(a.num_gpus for a in plan.allocations.values())
        assert total <= hetero_cluster.total_gpus

    def test_deterministic_given_seed(self, hetero_cluster):
        def run():
            scheduler = PolluxScheduler(GAParams(population=8, generations=4,
                                                 seed=7))
            views = [view_for(make_job(f"j{i}", "bert", 0.0), hetero_cluster)
                     for i in range(5)]
            return scheduler.decide(views, hetero_cluster, {}, 0.0)
        a, b = run(), run()
        assert {k: v.num_gpus for k, v in a.allocations.items()} == \
            {k: v.num_gpus for k, v in b.allocations.items()}

    def test_single_job_gets_resources(self, hetero_cluster):
        scheduler = PolluxScheduler()
        views = [view_for(make_job("j1", "bert", 0.0), hetero_cluster)]
        plan = scheduler.decide(views, hetero_cluster, {}, 0.0)
        assert "j1" in plan.allocations

    def test_empty_views(self, hetero_cluster):
        plan = PolluxScheduler().decide([], hetero_cluster, {}, 0.0)
        assert plan.allocations == {}


class TestMixedTypeFixup:
    def test_allocations_never_mix_types(self, hetero_cluster):
        scheduler = PolluxScheduler(GAParams(population=12, generations=6))
        views = [view_for(make_job(f"j{i}", "yolov3", 0.0, max_gpus=16),
                          hetero_cluster) for i in range(6)]
        plan = scheduler.decide(views, hetero_cluster, {}, 0.0)
        for alloc in plan.allocations.values():
            types = {hetero_cluster.nodes[nid].gpu_type
                     for nid, _ in alloc.gpus_per_node}
            # node_id indexes into cluster.nodes by construction
            assert len({alloc.gpu_type}) == 1
            assert types == {alloc.gpu_type}

    def test_fixup_picks_majority_type(self, hetero_cluster):
        scheduler = PolluxScheduler()
        job = make_job("j1", "bert", 0.0)
        view = view_for(job, hetero_cluster)
        taken = {hetero_cluster.nodes_of_type("t4")[0].node_id: 4,
                 hetero_cluster.nodes_of_type("t4")[1].node_id: 4,
                 hetero_cluster.nodes_of_type("rtx")[0].node_id: 2}
        alloc = scheduler._fix_mixed_types(taken, node_types(hetero_cluster),
                                           view)
        assert alloc.gpu_type == "t4"
        assert alloc.num_gpus == 8

    def test_fixup_tie_prefers_powerful_type(self, hetero_cluster):
        scheduler = PolluxScheduler()
        view = view_for(make_job("j1", "bert", 0.0), hetero_cluster)
        taken = {hetero_cluster.nodes_of_type("t4")[0].node_id: 4,
                 hetero_cluster.nodes_of_type("a100")[0].node_id: 4}
        alloc = scheduler._fix_mixed_types(taken, node_types(hetero_cluster),
                                           view)
        assert alloc.gpu_type == "a100"

    def test_fixup_below_minimum_drops_job(self, hetero_cluster):
        """If trimming to one type leaves fewer GPUs than the job's minimum,
        the job gets nothing this round."""
        scheduler = PolluxScheduler()
        job = make_job("j1", "bert", 0.0)
        job.min_gpus = 8
        view = view_for(job, hetero_cluster)
        taken = {hetero_cluster.nodes_of_type("t4")[0].node_id: 4,
                 hetero_cluster.nodes_of_type("rtx")[0].node_id: 2}
        assert scheduler._fix_mixed_types(
            taken, node_types(hetero_cluster), view) is None


def test_virtual_node_size_is_four():
    assert VIRTUAL_NODE_SIZE == 4
