"""Tests for core value types."""

import pickle
from dataclasses import replace

import pytest

from repro.core.types import Allocation, Configuration


class TestConfiguration:
    def test_basic_fields(self):
        config = Configuration(2, 16, "t4")
        assert config.num_nodes == 2
        assert config.num_gpus == 16
        assert config.gpu_type == "t4"

    def test_str_matches_paper_notation(self):
        assert str(Configuration(2, 16, "t4")) == "(2, 16, t4)"

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Configuration(0, 4, "t4")

    def test_rejects_fewer_gpus_than_nodes(self):
        with pytest.raises(ValueError):
            Configuration(4, 2, "t4")

    def test_equality_and_hash(self):
        a = Configuration(1, 4, "rtx")
        b = Configuration(1, 4, "rtx")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Configuration(1, 4, "t4")

    def test_ordering_is_total(self):
        configs = [Configuration(1, 4, "t4"), Configuration(1, 2, "t4"),
                   Configuration(2, 8, "a100")]
        assert sorted(configs)  # must not raise


class TestAllocation:
    def test_build_sorts_nodes(self):
        alloc = Allocation.build("t4", {5: 2, 1: 4})
        assert alloc.gpus_per_node == ((1, 4), (5, 2))
        assert alloc.num_gpus == 6
        assert alloc.num_nodes == 2
        assert alloc.node_ids == (1, 5)

    def test_configuration_roundtrip(self):
        alloc = Allocation.build("rtx", {0: 8, 1: 8})
        config = alloc.configuration()
        assert config == Configuration(2, 16, "rtx")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Allocation.build("t4", {})

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            Allocation.build("t4", {0: 0})

    def test_equality_is_structural(self):
        a = Allocation.build("t4", {0: 2, 1: 2})
        b = Allocation.build("t4", {1: 2, 0: 2})
        assert a == b

    ALLOCATIONS = [{0: 4}, {3: 2, 1: 2}, {7: 8, 2: 8, 5: 8}]

    @pytest.mark.parametrize("nodes", ALLOCATIONS)
    def test_cached_values_equal_a_fresh_derivation(self, nodes):
        alloc = Allocation.build("rtx", nodes)
        items = sorted(nodes.items())
        for _ in range(2):  # the cold read, then the cached one
            assert alloc.num_gpus == sum(nodes.values())
            assert alloc.node_ids == tuple(node for node, _ in items)
            assert alloc.configuration() == Configuration(
                len(nodes), sum(nodes.values()), "rtx")
        assert alloc.configuration() is alloc.configuration()

    @pytest.mark.parametrize("nodes", ALLOCATIONS)
    def test_cache_leaves_identity_and_pickle_alone(self, nodes):
        """Equality, hash, repr and pickle bytes see only the fields,
        however many derived values were read."""
        read, fresh = (Allocation.build("a100", nodes) for _ in range(2))
        read.num_gpus, read.node_ids, read.configuration()
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == (
            f"Allocation(gpu_type='a100', "
            f"gpus_per_node={tuple(sorted(nodes.items()))!r})")
        assert pickle.dumps(read) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(read))
        assert restored == read and restored.num_gpus == read.num_gpus

    def test_replace_derives_its_own_values(self):
        alloc = Allocation.build("t4", {0: 4, 1: 4})
        assert alloc.num_gpus == 8
        smaller = replace(alloc, gpus_per_node=((2, 2),))
        assert smaller.num_gpus == 2 and smaller.node_ids == (2,)
        assert smaller.configuration() == Configuration(1, 2, "t4")
        assert alloc.configuration() == Configuration(2, 8, "t4")
