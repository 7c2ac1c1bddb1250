"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeGroup
from repro.core.fork import make_fault_models, make_scheduler
from repro.core.health import HealthConfig
from repro.sim.engine import Simulator, SimulatorConfig
from repro.workloads import newtrace_trace, tuned_jobs


@pytest.fixture
def hetero_cluster() -> Cluster:
    """The paper's 64-GPU heterogeneous testbed."""
    return presets.heterogeneous()


@pytest.fixture
def homo_cluster() -> Cluster:
    """The paper's 64-GPU homogeneous (16x t4) testbed."""
    return presets.homogeneous()


@pytest.fixture
def tiny_cluster() -> Cluster:
    """The running example of Section 3.4: 1 node x 2 A GPUs + 1 node x 4 B
    GPUs (we use quad for A and t4 for B)."""
    return Cluster.from_groups([
        NodeGroup("quad", num_nodes=1, gpus_per_node=2),
        NodeGroup("t4", num_nodes=1, gpus_per_node=4),
    ])


@pytest.fixture(scope="module")
def ops_factory():
    """``factory(checkpoint_config)`` -> a fresh simulator on the
    fifo-ops1024 benchmark recipe at 64 GPUs and 60 jobs: tuned jobs,
    resilient FIFO, the health layer, strict invariants and its three fault
    models.  A run records 480 rounds."""
    cluster = presets.scaled_heterogeneous(64)
    trace = newtrace_trace(seed=7, num_jobs=60)
    jobs = tuned_jobs(trace.jobs, cluster, seed=trace.seed)

    def factory(checkpoint):
        config = SimulatorConfig(
            seed=1, resilient=True, invariants="strict",
            health=HealthConfig(),
            fault_models=make_fault_models({"gray_rate": 0.05,
                                            "placement_fail_prob": 0.05,
                                            "telemetry_corrupt_rate": 0.05}),
            checkpoint=checkpoint)
        return Simulator(cluster, make_scheduler("fifo", resilient=True),
                         jobs, config)

    return factory
