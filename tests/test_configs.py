"""Tests for Section 3.3 configuration-set construction."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeGroup
from dataclasses import replace

from repro.core.configs import (build_config_set, multi_node_configs,
                                powers_of_two_up_to, single_node_configs)
from repro.core.types import AdaptivityMode, Configuration
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.schedulers.base import JobView
from repro.schedulers.sia import SiaScheduler


class TestPowersOfTwo:
    def test_exact(self):
        assert powers_of_two_up_to(8) == [1, 2, 4, 8]

    def test_non_power_limit(self):
        assert powers_of_two_up_to(6) == [1, 2, 4]

    def test_one(self):
        assert powers_of_two_up_to(1) == [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            powers_of_two_up_to(0)

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_all_values_are_powers_within_limit(self, limit):
        values = powers_of_two_up_to(limit)
        assert all(v & (v - 1) == 0 for v in values)
        assert max(values) <= limit
        assert 2 * max(values) > limit  # largest power included


class TestSetConstruction:
    def test_paper_running_example(self, tiny_cluster):
        """Section 3.4: cluster with 2 A GPUs and 4 B GPUs has
        C = {(1,1,A), (1,2,A), (1,1,B), (1,2,B), (1,4,B)}."""
        configs = set(build_config_set(tiny_cluster))
        expected = {
            Configuration(1, 1, "quad"), Configuration(1, 2, "quad"),
            Configuration(1, 1, "t4"), Configuration(1, 2, "t4"),
            Configuration(1, 4, "t4"),
        }
        assert configs == expected

    def test_single_node_set_is_powers_of_two(self):
        configs = single_node_configs("t4", 8)
        assert [c.num_gpus for c in configs] == [1, 2, 4, 8]
        assert all(c.num_nodes == 1 for c in configs)

    def test_multi_node_set_uses_whole_nodes(self):
        configs = multi_node_configs("rtx", num_nodes=3, node_size=8)
        assert [(c.num_nodes, c.num_gpus) for c in configs] == \
            [(2, 16), (3, 24)]

    def test_multi_node_max_nodes_cap(self):
        configs = multi_node_configs("rtx", 10, 8, max_nodes=4)
        assert max(c.num_nodes for c in configs) == 4

    def test_max_gpus_filter(self, hetero_cluster):
        configs = build_config_set(hetero_cluster, max_gpus=8)
        assert all(c.num_gpus <= 8 for c in configs)

    def test_set_size_is_logarithmic_per_type(self):
        """|C| = O(N + log2 R) per type — the scalability claim."""
        cluster = Cluster.from_groups([NodeGroup("t4", 64, 4)])
        configs = build_config_set(cluster)
        # single-node: 1,2,4; multi-node: 2..64 nodes => 63.
        assert len(configs) == 3 + 63

    def test_heterogeneous_set(self, hetero_cluster):
        configs = build_config_set(hetero_cluster, max_gpus=16)
        by_type = {}
        for c in configs:
            by_type.setdefault(c.gpu_type, []).append(c)
        assert set(by_type) == {"t4", "rtx", "a100"}
        # rtx: 1,2,4,8 single-node + (2,16) multi-node.
        assert len(by_type["rtx"]) == 5

    def test_deterministic_order(self, hetero_cluster):
        assert build_config_set(hetero_cluster) == \
            build_config_set(hetero_cluster)

    @given(num_nodes=st.integers(1, 8), node_size=st.sampled_from([1, 2, 4, 8]))
    def test_all_configs_fit_capacity(self, num_nodes, node_size):
        cluster = Cluster.from_groups([NodeGroup("t4", num_nodes, node_size)])
        for config in build_config_set(cluster):
            assert config.num_gpus <= cluster.capacity("t4")
            if config.num_nodes > 1:
                assert config.num_gpus % config.num_nodes == 0


class TestFeasibleForJob:
    """Section 3.1's per-round filter, as ``SiaScheduler.feasible_configs``
    applies it to the configuration set."""

    @pytest.fixture
    def configs(self, hetero_cluster):
        return build_config_set(hetero_cluster, max_gpus=16)

    @staticmethod
    def feasible(configs, job, current=None):
        view = JobView(job=job, estimator=None, current_config=current,
                       age=0.0, num_restarts=0, progress=0.0)
        config_pos = {c: j for j, c in enumerate(configs)}
        return [configs[j] for j in
                SiaScheduler().feasible_configs(view, configs, config_pos)]

    def test_pending_job_gets_min_size_only(self, configs):
        out = self.feasible(configs, make_job("j", "bert", 0.0))
        assert all(c.num_gpus == 1 for c in out)
        assert len(out) == 3  # one per GPU type

    def test_scale_up_capped_at_2x(self, configs):
        out = self.feasible(configs, make_job("j", "bert", 0.0),
                            Configuration(1, 4, "a100"))
        assert max(c.num_gpus for c in out) == 8

    def test_respects_max_gpus(self, configs):
        out = self.feasible(configs, make_job("j", "bert", 0.0, max_gpus=8),
                            Configuration(1, 8, "a100"))
        assert all(c.num_gpus <= 8 for c in out)

    def test_respects_min_gpus(self, configs):
        job = replace(make_job("j", "bert", 0.0), min_gpus=4)
        out = self.feasible(configs, job, Configuration(1, 8, "a100"))
        assert all(c.num_gpus >= 4 for c in out)

    def test_type_restriction(self, configs):
        job = make_job("j", "bert", 0.0)
        job.fixed_gpu_type = "a100"
        out = self.feasible(configs, job, Configuration(1, 4, "a100"))
        assert all(c.gpu_type == "a100" for c in out)


def _job(index, limits):
    max_gpus, min_gpus, fixed_type, rigid, hybrid = limits
    if hybrid:
        stages = [{"a100": 2, "rtx": 4}, {"rtx": 4, "a100": 2},
                  {"a100": 2, "rtx": 8}][hybrid - 1]
        return make_job(f"j{index}", "gpt-2.8b", 0.0,
                        hybrid=HybridSpec(stages_per_type=stages))
    if rigid:
        return make_job(f"j{index}", "bert", 0.0, fixed_num_gpus=rigid,
                        adaptivity=AdaptivityMode.RIGID)
    job = replace(make_job(f"j{index}", "bert", 0.0, max_gpus=max_gpus),
                  min_gpus=min(min_gpus, max_gpus))
    job.fixed_gpu_type = fixed_type
    return job


LIMITS = st.tuples(st.sampled_from([1, 4, 8, 64]), st.sampled_from([1, 2, 4]),
                   st.sampled_from([None, "a100", "t4"]),
                   st.sampled_from([None, None, 2, 4]),
                   st.sampled_from([0, 0, 0, 1, 2, 3]))


class TestFeasibleMemo:
    """Sia memoizes each job's feasible columns per configuration set, by
    the job's limits and current configuration."""

    # Few current configurations, so jobs that differ in one limit often
    # share the rest of their key.
    @given(jobs=st.lists(st.tuples(LIMITS, st.sampled_from([-1, 2, 10, 16])),
                         min_size=1, max_size=12))
    def test_memo_equals_a_fresh_filter(self, jobs):
        """Each memoized entry is the filter's answer for that job, and
        jobs with equal limits and current configuration share one list
        of configurations."""
        policy = SiaScheduler()
        entry = policy._config_set(presets.heterogeneous(), 64)
        configs = entry.configs
        seen = {}
        for index, (limits, current) in enumerate(jobs):
            current = configs[current] if current >= 0 else None
            view = JobView(job=_job(index, limits), estimator=None,
                           current_config=current, age=0.0, num_restarts=0,
                           progress=0.0)
            cols, chosen = policy._feasible(entry, view)
            assert cols == policy.feasible_configs(view, configs, entry.pos)
            assert chosen == [configs[j] for j in cols]
            shared = seen.setdefault((limits, current), chosen)
            assert chosen is shared
