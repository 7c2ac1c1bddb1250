"""Physical node model.

A node hosts a fixed number of GPUs of a single type.  Sia's configuration
rules (Section 3.3) require power-of-two allocations within a node; nodes
whose GPU count is not a power of two are decomposed into *virtual nodes*
with power-of-two sizes (e.g. a 12-GPU node becomes virtual nodes of 8 + 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import gpu_spec


def power_of_two_decomposition(value: int) -> list[int]:
    """Decompose ``value`` into powers of two, largest first.

    >>> power_of_two_decomposition(12)
    [8, 4]
    >>> power_of_two_decomposition(8)
    [8]
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    parts: list[int] = []
    bit = 1 << (value.bit_length() - 1)
    while value:
        if value >= bit:
            parts.append(bit)
            value -= bit
        bit >>= 1
    return parts


@dataclass
class Node:
    """One physical (or virtual) node in the cluster."""

    node_id: int
    gpu_type: str
    num_gpus: int
    #: id of the physical node this virtual node was carved from (or self).
    physical_id: int | None = None

    def __post_init__(self) -> None:
        gpu_spec(self.gpu_type)  # validate the type exists
        if self.num_gpus < 1:
            raise ValueError(f"node {self.node_id} must have >= 1 GPU")
        if self.physical_id is None:
            self.physical_id = self.node_id


@dataclass
class NodeGroup:
    """A homogeneous group of identical nodes, the unit used by presets."""

    gpu_type: str
    num_nodes: int
    gpus_per_node: int

    def __post_init__(self) -> None:
        gpu_spec(self.gpu_type)
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("NodeGroup sizes must be positive")
