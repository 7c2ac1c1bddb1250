"""Cluster/resource model: GPU catalog, nodes, clusters, preset testbeds."""

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU_CATALOG, GPU_POWER_ORDER, GPUSpec, gpu_spec, power_rank
from repro.cluster.node import Node, NodeGroup, power_of_two_decomposition
from repro.cluster import presets

__all__ = [
    "Cluster",
    "GPU_CATALOG",
    "GPU_POWER_ORDER",
    "GPUSpec",
    "gpu_spec",
    "power_rank",
    "Node",
    "NodeGroup",
    "power_of_two_decomposition",
    "presets",
]
