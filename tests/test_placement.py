"""Tests for placement (Section 3.1 rules a/b/c)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeGroup
from repro.core.placement import place
from repro.core.types import Allocation, Configuration


def evicted(assignments, allocations) -> set[str]:
    """Assigned jobs that placement left out this round."""
    return set(assignments) - set(allocations)


class TestSingleNodeRule:
    def test_partial_allocation_on_one_node(self, hetero_cluster):
        alloc = place(hetero_cluster,
                      {"j1": Configuration(1, 4, "rtx")}, {})["j1"]
        assert alloc.num_nodes == 1
        assert alloc.num_gpus == 4

    def test_partial_never_split(self, hetero_cluster):
        """Rule (a): a 4-GPU rtx allocation must land on exactly one node
        even when free GPUs are scattered."""
        # Fill 6 of 8 GPUs on every rtx node with other jobs.
        assignments = {f"f{i}": Configuration(1, 4, "rtx") for i in range(3)}
        assignments |= {f"g{i}": Configuration(1, 2, "rtx") for i in range(3)}
        # 3 nodes x (4+2) = 18 GPUs used, 2 free per node: a 4-GPU job
        # cannot be placed even though 6 GPUs are free in total.
        extra = dict(assignments)
        extra["late"] = Configuration(1, 4, "rtx")
        result = place(hetero_cluster, extra, {})
        if "late" in result:
            assert result["late"].num_nodes == 1
        else:
            assert "late" in evicted(extra, result)

    def test_best_fit_prefers_tightest_node(self):
        cluster = Cluster.from_groups([NodeGroup("t4", 2, 4)])
        first = place(cluster, {"a": Configuration(1, 2, "t4"),
                                "b": Configuration(1, 2, "t4")}, {})
        # Best-fit should co-locate both 2-GPU jobs on one node.
        nodes_used = {next(iter(alloc.node_ids))
                      for alloc in first.values()}
        assert len(nodes_used) == 1


class TestWholeNodeRule:
    def test_multi_node_takes_whole_nodes(self, hetero_cluster):
        alloc = place(hetero_cluster,
                      {"j1": Configuration(2, 16, "rtx")}, {})["j1"]
        assert alloc.num_nodes == 2
        assert all(count == 8 for _, count in alloc.gpus_per_node)

    def test_multi_node_needs_empty_nodes(self, hetero_cluster):
        assignments = {
            "small": Configuration(1, 1, "a100"),
            "small2": Configuration(1, 1, "a100"),
            "big": Configuration(2, 16, "a100"),
        }
        result = place(hetero_cluster, assignments, {})
        # Only 2 a100 nodes exist; the repack must evict someone.
        placed_gpus = sum(a.num_gpus for a in result.values())
        assert placed_gpus <= 16
        if "big" in result:
            assert evicted(assignments, result)  # the small jobs had to go


class TestStability:
    def test_unchanged_jobs_keep_exact_gpus(self, hetero_cluster):
        config = Configuration(1, 4, "rtx")
        first = place(hetero_cluster, {"j1": config}, {})
        prev = {"j1": first["j1"]}
        second = place(hetero_cluster, {"j1": config}, prev)
        assert second["j1"] == prev["j1"]

    def test_changed_config_prefers_previous_node(self, hetero_cluster):
        first = place(hetero_cluster, {"j1": Configuration(1, 2, "rtx")}, {})
        prev = {"j1": first["j1"]}
        second = place(hetero_cluster, {"j1": Configuration(1, 4, "rtx")},
                       prev)
        assert second["j1"].node_ids == prev["j1"].node_ids


class TestEviction:
    def test_fragmentation_triggers_repack(self):
        cluster = Cluster.from_groups([NodeGroup("t4", 2, 4)])
        # Previous round: two 2-GPU jobs on different nodes (forced via
        # explicit previous allocations on separate nodes).
        node_ids = [n.node_id for n in cluster.nodes]
        prev = {
            "a": Allocation.build("t4", {node_ids[0]: 2}),
            "b": Allocation.build("t4", {node_ids[1]: 2}),
        }
        assignments = {
            "a": Configuration(1, 2, "t4"),
            "b": Configuration(1, 2, "t4"),
            "c": Configuration(1, 4, "t4"),
        }
        result = place(cluster, assignments, prev)
        # Repack must fit all three (2+2 share one node, 4 takes the other).
        assert set(result) == {"a", "b", "c"}

    def test_truly_infeasible_job_evicted(self, hetero_cluster):
        assignments = {f"j{i}": Configuration(1, 8, "a100") for i in range(3)}
        result = place(hetero_cluster, assignments, {})
        assert len(result) == 2
        assert len(evicted(assignments, result)) == 1

    def test_oversubscribed_previous_raises(self):
        """Two kept allocations that over-fill one node are a caller bug:
        ``place`` refuses them instead of booking more GPUs than exist."""
        cluster = Cluster.from_groups([NodeGroup("t4", 1, 4)])
        node_id = cluster.nodes[0].node_id
        prev = {"a": Allocation.build("t4", {node_id: 3}),
                "b": Allocation.build("t4", {node_id: 2})}
        assignments = {"a": Configuration(1, 3, "t4"),
                       "b": Configuration(1, 2, "t4")}
        with pytest.raises(ValueError, match="cannot acquire"):
            place(cluster, assignments, prev)


@st.composite
def assignment_sets(draw):
    cluster = presets.heterogeneous()
    n = draw(st.integers(1, 12))
    assignments = {}
    for i in range(n):
        gpu_type = draw(st.sampled_from(["t4", "rtx", "a100"]))
        node_size = cluster.max_node_size(gpu_type)
        if draw(st.booleans()):
            gpus = draw(st.sampled_from(
                [g for g in (1, 2, 4, 8) if g <= node_size]))
            config = Configuration(1, gpus, gpu_type)
        else:
            nodes = draw(st.integers(2, 3))
            config = Configuration(nodes, nodes * node_size, gpu_type)
        assignments[f"j{i}"] = config
    return cluster, assignments


class TestPlacementInvariants:
    @settings(max_examples=60, deadline=None)
    @given(case=assignment_sets())
    def test_no_oversubscription_and_rules_hold(self, case):
        cluster, assignments = case
        result = place(cluster, assignments, {})
        sizes = {n.node_id: n.num_gpus for n in cluster.nodes}
        types = {n.node_id: n.gpu_type for n in cluster.nodes}
        used: dict[int, int] = {}
        for job_id, alloc in result.items():
            config = assignments[job_id]
            assert alloc.configuration() == config
            for node_id, count in alloc.gpus_per_node:
                assert types[node_id] == alloc.gpu_type
                used[node_id] = used.get(node_id, 0) + count
                if config.num_nodes == 1:
                    assert alloc.num_nodes == 1  # rule (a)
        for node_id, count in used.items():
            assert count <= sizes[node_id]
        # placement never invents a job
        assert set(result) <= set(assignments)
