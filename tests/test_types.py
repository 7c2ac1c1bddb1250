"""Tests for core value types."""

import pytest

from repro.core.types import Allocation, Configuration


class TestConfiguration:
    def test_basic_fields(self):
        config = Configuration(2, 16, "t4")
        assert config.num_nodes == 2
        assert config.num_gpus == 16
        assert config.gpu_type == "t4"
        assert config.gpus_per_node == 8.0

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
