"""Core value types shared across the Sia reproduction.

The vocabulary here follows Section 3 of the paper:

* A *configuration* is a bundle of resources ``(n, r, t)``: ``n`` nodes
  containing a total of ``r`` GPUs of type ``t`` (Section 3.3).
* An *allocation* binds a configuration to concrete nodes of the cluster.
* Jobs have an *adaptivity mode*: fully adaptive (batch size, GPU count and
  type), strong-scaling (fixed batch size), or rigid (fixed batch size and
  GPU count; only the GPU type may be optimized) — Section 3.4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property


class AdaptivityMode(enum.Enum):
    """How much of a job's execution the scheduler may adapt (Section 3.4)."""

    #: Batch size, GPU count and GPU type may all be optimized.
    ADAPTIVE = "adaptive"
    #: Batch size is fixed by the submitter; GPU count/type may be optimized.
    STRONG_SCALING = "strong_scaling"
    #: Batch size and GPU count are fixed; only the GPU type may be optimized.
    RIGID = "rigid"


class ProfilingMode(enum.Enum):
    """How throughput models are seeded for new jobs (Section 5.7)."""

    #: Scheduler knows the true throughput of every possible allocation.
    ORACLE = "oracle"
    #: No initial profiling; models are learned purely as the job runs.
    NO_PROF = "no_prof"
    #: Paper default: profile one minimum-sized allocation per GPU type and
    #: bootstrap cross-type estimates with Equation (1).
    BOOTSTRAP = "bootstrap"


@dataclass(frozen=True, order=True)
class Configuration:
    """A resource bundle ``(n, r, t)``: ``num_gpus`` GPUs of ``gpu_type``
    spread over ``num_nodes`` nodes (Section 3.3).

    For single-node configurations ``num_nodes == 1`` and ``num_gpus`` is a
    power of two at most the node size.  Multi-node configurations use whole
    nodes, so ``num_gpus`` is ``num_nodes`` times the node size.
    """

    num_nodes: int
    num_gpus: int
    gpu_type: str

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_gpus < self.num_nodes:
            raise ValueError(
                f"num_gpus ({self.num_gpus}) must be >= num_nodes ({self.num_nodes})"
            )

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"({self.num_nodes}, {self.num_gpus}, {self.gpu_type})"


@dataclass(frozen=True)
class Allocation:
    """A configuration bound to concrete cluster nodes.

    ``gpus_per_node`` maps node id -> number of GPUs used on that node.  All
    nodes in one allocation have the same GPU type (Sia never mixes types
    within a job).

    ``num_gpus``, ``node_ids`` and :meth:`configuration` are derived once
    per object and cached in its ``__dict__``.  Equality, hashing, ``repr``
    and the pickle (:meth:`__getstate__`) see only the two fields.
    """

    gpu_type: str
    gpus_per_node: tuple[tuple[int, int], ...]  # ((node_id, n_gpus), ...)

    @cached_property
    def num_gpus(self) -> int:
        return sum(n for _, n in self.gpus_per_node)

    @property
    def num_nodes(self) -> int:
        return len(self.gpus_per_node)

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(node_id for node_id, _ in self.gpus_per_node)

    @cached_property
    def _configuration(self) -> Configuration:
        return Configuration(self.num_nodes, self.num_gpus, self.gpu_type)

    def configuration(self) -> Configuration:
        return self._configuration

    def __getstate__(self) -> dict:
        """The declared fields only, so cached values never pickle."""
        return {"gpu_type": self.gpu_type,
                "gpus_per_node": self.gpus_per_node}

    @staticmethod
    def build(gpu_type: str, gpus_per_node: dict[int, int]) -> "Allocation":
        """Construct an allocation from a ``{node_id: gpu_count}`` mapping."""
        if not gpus_per_node:
            raise ValueError("allocation must use at least one node")
        if any(count <= 0 for count in gpus_per_node.values()):
            raise ValueError("per-node GPU counts must be positive")
        items = tuple(sorted(gpus_per_node.items()))
        return Allocation(gpu_type=gpu_type, gpus_per_node=items)
