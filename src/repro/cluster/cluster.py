"""Cluster model: a collection of nodes of possibly several GPU types.

The cluster exposes the views the schedulers need:

* node inventory grouped by GPU type (with virtual-node decomposition so
  every schedulable node has a power-of-two GPU count — Section 3.3);
* capacity per GPU type (for ILP / LP constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.cluster.node import Node, NodeGroup, power_of_two_decomposition

if TYPE_CHECKING:
    from repro.core.types import Configuration


@dataclass(frozen=True)
class Cluster:
    """Immutable description of a cluster."""

    nodes: tuple[Node, ...]

    @staticmethod
    def from_groups(groups: list[NodeGroup], *, split_virtual: bool = True) -> "Cluster":
        """Build a cluster from homogeneous node groups.

        With ``split_virtual`` (the default, matching Section 3.3), nodes with
        non-power-of-two GPU counts are decomposed into power-of-two virtual
        nodes sharing the same physical id.
        """
        nodes: list[Node] = []
        next_id = 0
        next_physical = 0
        for group in groups:
            for _ in range(group.num_nodes):
                physical = next_physical
                next_physical += 1
                if split_virtual:
                    parts = power_of_two_decomposition(group.gpus_per_node)
                else:
                    parts = [group.gpus_per_node]
                for part in parts:
                    nodes.append(Node(node_id=next_id, gpu_type=group.gpu_type,
                                      num_gpus=part, physical_id=physical))
                    next_id += 1
        if not nodes:
            raise ValueError("cluster must contain at least one node")
        return Cluster(nodes=tuple(nodes))

    # -- static views ------------------------------------------------------
    #
    # Views derive from ``nodes`` once per object and are cached in its
    # ``__dict__``; ``gpu_types`` and ``signature`` build a new tuple per
    # call (see why there).  Equality, ``repr`` and the pickle
    # (:meth:`__getstate__`) see only ``nodes``.

    def __getstate__(self) -> dict:
        """The declared field only, so cached views never pickle."""
        return {"nodes": self.nodes}

    @cached_property
    def _by_type(self) -> dict[str, tuple[Node, ...]]:
        """:meth:`nodes_of_type` per GPU type asked for so far."""
        return {}

    @cached_property
    def node_sizes(self) -> dict[int, int]:
        """GPUs per node id, as placement reads it; do not edit it."""
        return {node.node_id: node.num_gpus for node in self.nodes}

    @cached_property
    def _capacities(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for node in self.nodes:
            totals[node.gpu_type] = totals.get(node.gpu_type, 0) + \
                node.num_gpus
        return totals

    @property
    def gpu_types(self) -> tuple[str, ...]:
        """GPU types present, ordered by first appearance.  A new tuple per
        call, as before caching: estimators keep it, and one shared tuple
        would pickle as a back-reference, changing checkpoint bytes."""
        return tuple(self._capacities)

    @cached_property
    def total_gpus(self) -> int:
        return sum(node.num_gpus for node in self.nodes)

    @property
    def signature(self) -> tuple:
        """Structural identity: (type, size) per node, in order.  It keys
        Sia's configuration-set cache and guards checkpoint resumes (node
        ids in restored allocations must mean the same nodes).  Built per
        call, once a round: both keep it, and a shared one would pickle
        as a back-reference, changing checkpoint bytes."""
        return tuple((n.gpu_type, n.num_gpus) for n in self.nodes)

    def nodes_of_type(self, gpu_type: str) -> tuple[Node, ...]:
        nodes = self._by_type.get(gpu_type)
        if nodes is None:
            nodes = self._by_type[gpu_type] = tuple(
                n for n in self.nodes if n.gpu_type == gpu_type)
        return nodes

    def capacity(self, gpu_type: str) -> int:
        """Total GPUs of ``gpu_type`` in the cluster."""
        return self._capacities.get(gpu_type, 0)

    def capacities(self) -> dict[str, int]:
        """Total GPUs per type, in :attr:`gpu_types` order: one pass over
        the nodes per object, and a fresh ``dict`` per call, so a caller
        that edits it changes nothing here."""
        return dict(self._capacities)

    def max_node_size(self, gpu_type: str) -> int:
        size = self.largest_nodes.get(gpu_type)
        if size is None:
            raise KeyError(f"no nodes of type {gpu_type!r}")
        return size

    @cached_property
    def largest_nodes(self) -> dict[str, int]:
        """The largest node's GPU count per GPU type, in :attr:`gpu_types`
        order; do not edit it."""
        largest: dict[str, int] = {}
        for node in self.nodes:
            if node.num_gpus > largest.get(node.gpu_type, 0):
                largest[node.gpu_type] = node.num_gpus
        return largest

    @cached_property
    def _spanning(self) -> dict[int, list[Configuration]]:
        """:meth:`spanning_configs` per GPU count asked for so far."""
        return {}

    def spanning_configs(self, count: int) -> list[Configuration]:
        """One :class:`~repro.core.types.Configuration` of ``count`` GPUs
        per GPU type, in :attr:`gpu_types` order, each spanning the fewest
        of the type's largest nodes.  The same list for every call with
        ``count``, so an estimator's saved row answers its next probe; do
        not edit it."""
        configs = self._spanning.get(count)
        if configs is None:
            # core imports this module, so Configuration is imported late.
            from repro.core.types import Configuration
            configs = self._spanning[count] = [
                Configuration(max(1, -(-count // size)), count, gpu_type)
                for gpu_type, size in self.largest_nodes.items()]
        return configs

    def describe(self) -> str:
        """Human-readable summary, e.g. ``'6x t4(4) + 3x rtx(8) + 2x a100(8)'``."""
        counts: dict[tuple[str, int], int] = {}
        for node in self.nodes:
            key = (node.gpu_type, node.num_gpus)
            counts[key] = counts.get(key, 0) + 1
        parts = [f"{n}x {t}({g})" for (t, g), n in sorted(counts.items())]
        return " + ".join(parts)
