"""Tests for the cluster model: GPU catalog, nodes, clusters, presets."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU_CATALOG, GPUSpec, gpu_spec, power_rank
from repro.cluster.node import Node, NodeGroup, power_of_two_decomposition


class TestGPUCatalog:
    def test_four_paper_types_present(self):
        assert set(GPU_CATALOG) == {"t4", "rtx", "a100", "quad"}

    def test_t4_is_reference(self):
        assert gpu_spec("t4").compute_scale == 1.0

    def test_a100_dominates_compute_and_memory(self):
        a100 = gpu_spec("a100")
        for other in ("t4", "rtx", "quad"):
            assert a100.compute_scale > gpu_spec(other).compute_scale
            assert a100.memory_gb > gpu_spec(other).memory_gb

    def test_rtx_has_smallest_memory(self):
        assert gpu_spec("rtx").memory_gb == min(
            s.memory_gb for s in GPU_CATALOG.values())

    def test_unknown_type_raises_with_known_list(self):
        with pytest.raises(KeyError, match="a100"):
            gpu_spec("h100")

    def test_power_order(self):
        # Section 4.3: a100 > quad > rtx > t4.
        assert power_rank("a100") < power_rank("quad") \
            < power_rank("rtx") < power_rank("t4")

    def test_power_rank_unknown_sorts_last(self):
        assert power_rank("h100") > power_rank("t4")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GPUSpec("bad", memory_gb=0, compute_scale=1,
                    intra_node_bw_gbps=1, inter_node_bw_gbps=1)


class TestPowerOfTwoDecomposition:
    def test_exact_power(self):
        assert power_of_two_decomposition(8) == [8]

    def test_mixed(self):
        assert power_of_two_decomposition(12) == [8, 4]
        assert power_of_two_decomposition(7) == [4, 2, 1]

    def test_one(self):
        assert power_of_two_decomposition(1) == [1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_of_two_decomposition(0)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_parts_sum_to_value_and_are_powers(self, value):
        parts = power_of_two_decomposition(value)
        assert sum(parts) == value
        assert all(p & (p - 1) == 0 for p in parts)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)  # each power used at most once


class TestNode:
    def test_validates_gpu_type(self):
        with pytest.raises(KeyError):
            Node(0, "nope", 4)

    def test_physical_id_defaults_to_self(self):
        assert Node(3, "t4", 4).physical_id == 3


class TestCluster:
    def test_from_groups_counts(self, hetero_cluster):
        assert hetero_cluster.total_gpus == 64
        assert hetero_cluster.capacity("t4") == 24
        assert hetero_cluster.capacity("rtx") == 24
        assert hetero_cluster.capacity("a100") == 16

    def test_gpu_types_ordered_by_appearance(self, hetero_cluster):
        assert hetero_cluster.gpu_types == ("t4", "rtx", "a100")

    def test_virtual_node_split(self):
        cluster = Cluster.from_groups([NodeGroup("t4", 1, 12)])
        sizes = sorted(n.num_gpus for n in cluster.nodes)
        assert sizes == [4, 8]
        # Both virtual nodes share one physical node.
        assert len({n.physical_id for n in cluster.nodes}) == 1

    def test_no_split_when_disabled(self):
        cluster = Cluster.from_groups([NodeGroup("t4", 1, 12)],
                                      split_virtual=False)
        assert [n.num_gpus for n in cluster.nodes] == [12]

    def test_describe_mentions_all_types(self, hetero_cluster):
        text = hetero_cluster.describe()
        for t in ("t4", "rtx", "a100"):
            assert t in text

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster.from_groups([])

    def test_max_node_size_unknown_type(self, homo_cluster):
        with pytest.raises(KeyError):
            homo_cluster.max_node_size("a100")


class TestClusterCache:
    """Static views are derived once per object and cached outside the
    fields: equal to a fresh derivation, and invisible to equality, repr
    and pickle (a cluster is not hashable: its nodes are not)."""

    @staticmethod
    def read_all(cluster: Cluster) -> None:
        cluster.gpu_types, cluster.signature, cluster.total_gpus
        cluster.capacities(), cluster.node_sizes
        for gpu_type in cluster.gpu_types:
            cluster.nodes_of_type(gpu_type), cluster.capacity(gpu_type)

    @pytest.mark.parametrize("name", ["heterogeneous", "homogeneous",
                                      "physical"])
    def test_cached_views_equal_a_fresh_derivation(self, name):
        cluster = presets.by_name(name)
        nodes = cluster.nodes
        types = tuple(dict.fromkeys(n.gpu_type for n in nodes))
        for _ in range(2):  # the cold read, then the cached one
            assert cluster.gpu_types == types
            assert cluster.signature == tuple((n.gpu_type, n.num_gpus)
                                              for n in nodes)
            assert cluster.total_gpus == sum(n.num_gpus for n in nodes)
            capacities = {t: sum(n.num_gpus for n in nodes
                                 if n.gpu_type == t) for t in types}
            assert cluster.capacities() == capacities
            assert list(cluster.capacities()) == list(types)
            for t in types:
                assert cluster.nodes_of_type(t) == tuple(
                    n for n in nodes if n.gpu_type == t)
                assert cluster.capacity(t) == capacities[t]
            assert cluster.nodes_of_type("v100") == ()
            assert cluster.capacity("v100") == 0
            assert cluster.node_sizes == {n.node_id: n.num_gpus
                                          for n in nodes}

    def test_cache_leaves_identity_and_pickle_alone(self, hetero_cluster):
        fresh = presets.heterogeneous()
        self.read_all(hetero_cluster)
        assert hetero_cluster == fresh
        assert repr(hetero_cluster) == repr(fresh)
        assert pickle.dumps(hetero_cluster) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(hetero_cluster))
        assert restored == fresh
        assert restored.capacities() == fresh.capacities()

    def test_kept_views_are_new_per_call(self, hetero_cluster):
        """Estimators keep ``gpu_types`` and checkpoints keep
        ``signature``: each call builds a new tuple, as before caching, so
        two holders never pickle one shared tuple as a back-reference."""
        assert hetero_cluster.gpu_types is not hetero_cluster.gpu_types
        assert hetero_cluster.signature is not hetero_cluster.signature
        types = ["t4", "rtx", "a100"]
        pair = [hetero_cluster.gpu_types, hetero_cluster.gpu_types]
        assert pickle.dumps(pair) == pickle.dumps([tuple(types),
                                                   tuple(types)])

    def test_capacities_returns_a_fresh_dict(self, hetero_cluster):
        first = hetero_cluster.capacities()
        first["t4"] = 0
        first["v100"] = 8
        assert hetero_cluster.capacities() == {"t4": 24, "rtx": 24,
                                               "a100": 16}
        assert hetero_cluster.capacities() is not \
            hetero_cluster.capacities()

    def test_replace_derives_its_own_views(self, hetero_cluster):
        self.read_all(hetero_cluster)
        t4_only = replace(hetero_cluster,
                          nodes=hetero_cluster.nodes_of_type("t4"))
        assert t4_only.gpu_types == ("t4",)
        assert t4_only.capacities() == {"t4": 24}
        assert t4_only.total_gpus == 24
        assert t4_only.nodes_of_type("a100") == ()
        assert hetero_cluster.total_gpus == 64


class TestPresets:
    def test_physical_is_44_gpus(self):
        assert presets.physical().total_gpus == 44

    def test_homogeneous_is_64_t4(self):
        cluster = presets.homogeneous()
        assert cluster.total_gpus == 64
        assert cluster.gpu_types == ("t4",)

    def test_heterogeneous_is_64(self):
        assert presets.heterogeneous().total_gpus == 64

    def test_scaled_heterogeneous(self):
        assert presets.scaled_heterogeneous(2048).total_gpus == 2048
        with pytest.raises(ValueError):
            presets.scaled_heterogeneous(100)

    def test_by_name(self):
        assert presets.by_name("physical").total_gpus == 44
        with pytest.raises(KeyError):
            presets.by_name("galaxy")
