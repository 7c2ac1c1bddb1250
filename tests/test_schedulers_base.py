"""Tests for the scheduler base layer: RoundPlan validation, shared packing,
estimator factory."""

import pytest

from repro.core.types import Allocation, ProfilingMode
from repro.jobs.hybrid import HybridPerfEstimator, HybridSpec
from repro.jobs.job import make_job
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers import (GavelScheduler, PolluxScheduler, SiaScheduler)
from repro.schedulers.base import RoundPlan, pack_gpus, pack_gpus_on_type
from repro.schedulers.pollux import PolluxEstimator


class TestRoundPlanValidation:
    def test_valid_plan_passes(self, hetero_cluster):
        node = hetero_cluster.nodes_of_type("rtx")[0]
        plan = RoundPlan(allocations={
            "j1": Allocation.build("rtx", {node.node_id: 4})})
        plan.validate(hetero_cluster)

    def test_unknown_node_rejected(self, hetero_cluster):
        plan = RoundPlan(allocations={
            "j1": Allocation.build("rtx", {999: 1})})
        with pytest.raises(ValueError, match="unknown node"):
            plan.validate(hetero_cluster)

    def test_type_mismatch_rejected(self, hetero_cluster):
        node = hetero_cluster.nodes_of_type("rtx")[0]
        plan = RoundPlan(allocations={
            "j1": Allocation.build("t4", {node.node_id: 1})})
        with pytest.raises(ValueError, match="allocation says"):
            plan.validate(hetero_cluster)

    def test_oversubscription_rejected(self, hetero_cluster):
        node = hetero_cluster.nodes_of_type("t4")[0]
        plan = RoundPlan(allocations={
            "j1": Allocation.build("t4", {node.node_id: 3}),
            "j2": Allocation.build("t4", {node.node_id: 3}),
        })
        with pytest.raises(ValueError, match="over-subscribed"):
            plan.validate(hetero_cluster)


class TestPackGpus:
    def test_fills_freest_node_first(self, hetero_cluster):
        occupancy = {}
        alloc = pack_gpus_on_type(hetero_cluster, "rtx", 4, occupancy)
        assert alloc.num_gpus == 4
        assert sum(occupancy.values()) == 4

    def test_spans_nodes_when_needed(self, hetero_cluster):
        occupancy = {}
        alloc = pack_gpus_on_type(hetero_cluster, "t4", 10, occupancy)
        assert alloc.num_gpus == 10
        assert alloc.num_nodes >= 3  # t4 nodes hold 4 GPUs each

    def test_prefers_preferred_nodes(self, hetero_cluster):
        target = hetero_cluster.nodes_of_type("rtx")[-1].node_id
        alloc = pack_gpus_on_type(hetero_cluster, "rtx", 2, {},
                                  preferred_nodes=(target,))
        assert alloc.node_ids == (target,)

    def test_returns_none_when_full(self, hetero_cluster):
        occupancy = {n.node_id: n.num_gpus
                     for n in hetero_cluster.nodes_of_type("a100")}
        assert pack_gpus_on_type(hetero_cluster, "a100", 1, occupancy) is None

    def test_failure_does_not_mutate_occupancy(self, hetero_cluster):
        occupancy = {n.node_id: n.num_gpus - 1
                     for n in hetero_cluster.nodes_of_type("a100")}
        before = dict(occupancy)
        assert pack_gpus_on_type(hetero_cluster, "a100", 10, occupancy) is None
        assert occupancy == before

    def test_rejects_zero_count(self, hetero_cluster):
        with pytest.raises(ValueError):
            pack_gpus_on_type(hetero_cluster, "t4", 0, {})

    def test_typed_and_type_blind_callers(self, hetero_cluster):
        """The per-type packer of the rigid baselines and Gavel is
        ``pack_gpus`` over one type's nodes; Pollux's type-blind caller
        packs all nodes, its previous (preferred) nodes first, then the
        freest, whatever their type."""
        rtx = hetero_cluster.nodes_of_type("rtx")
        occupancy = {}
        typed = pack_gpus_on_type(hetero_cluster, "rtx", 10, occupancy)
        assert typed == Allocation.build("rtx", pack_gpus(rtx, 10, {}))
        assert occupancy == {rtx[0].node_id: 8, rtx[1].node_id: 2}

        last_t4 = hetero_cluster.nodes_of_type("t4")[-1].node_id
        taken = pack_gpus(hetero_cluster.nodes, 6, occupancy,
                          preferred=(last_t4,))
        # The preferred t4 node fills first; the free rtx node ties with
        # the a100 nodes on free GPUs and wins on its lower id.
        assert list(taken.items()) == [(last_t4, 4), (rtx[2].node_id, 2)]
        assert occupancy[last_t4] == 4 and occupancy[rtx[2].node_id] == 2


class TestEstimatorFactory:
    def test_sia_uses_per_type_estimator(self, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        est = SiaScheduler().make_estimator(job, hetero_cluster,
                                            ProfilingMode.BOOTSTRAP)
        assert isinstance(est, JobPerfEstimator)
        assert est.mode is ProfilingMode.BOOTSTRAP

    def test_pollux_uses_type_blind_estimator(self, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        est = PolluxScheduler().make_estimator(job, hetero_cluster,
                                               ProfilingMode.BOOTSTRAP)
        assert isinstance(est, PolluxEstimator)

    def test_gavel_forces_oracle(self, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        est = GavelScheduler().make_estimator(job, hetero_cluster,
                                              ProfilingMode.BOOTSTRAP)
        assert isinstance(est, JobPerfEstimator)
        assert est.mode is ProfilingMode.ORACLE

    def test_hybrid_job_gets_hybrid_estimator(self, hetero_cluster):
        job = make_job("j1", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                       max_gpus=64)
        est = SiaScheduler().make_estimator(job, hetero_cluster,
                                            ProfilingMode.BOOTSTRAP)
        assert isinstance(est, HybridPerfEstimator)
