"""Configuration-set construction (Section 3.3).

For a cluster with ``N`` nodes of ``R`` GPUs each (per GPU type ``X``), the
valid set is::

    C = {(1, 1, X), (1, 2, X), ..., (1, R, X)}            # powers of two
      U {(2, 2R, X), ..., (N, N*R, X)}                    # whole nodes

The single-node set restricts GPU counts to powers of two (virtual-node
decomposition in :mod:`repro.cluster` guarantees node sizes are powers of
two).  The multi-node set uses whole nodes only, which — per the Submesh
Shape Covering argument the paper cites — guarantees a placement exists for
every valid allocation mix with no two distributed jobs sharing nodes.

The set size is ``O(N + log2 R)`` per GPU type, which is what lets Sia's ILP
scale to thousands of GPUs (Figure 9).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.types import Configuration


def powers_of_two_up_to(limit: int) -> list[int]:
    """All powers of two <= limit, ascending.  ``limit`` must be >= 1."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    values = []
    v = 1
    while v <= limit:
        values.append(v)
        v *= 2
    return values


def single_node_configs(gpu_type: str, node_size: int) -> list[Configuration]:
    """Single-node configurations: powers of two up to the node size."""
    return [Configuration(1, g, gpu_type) for g in powers_of_two_up_to(node_size)]


def multi_node_configs(gpu_type: str, num_nodes: int, node_size: int,
                       *, max_nodes: int | None = None) -> list[Configuration]:
    """Multi-node configurations: whole nodes, 2..num_nodes.

    ``max_nodes`` optionally caps the span (used to respect per-job GPU
    limits without generating useless configurations).
    """
    top = num_nodes if max_nodes is None else min(num_nodes, max_nodes)
    return [Configuration(n, n * node_size, gpu_type) for n in range(2, top + 1)]


def build_config_set(cluster: Cluster,
                     *, max_gpus: int | None = None) -> list[Configuration]:
    """The full valid configuration set ``C`` for a cluster.

    Per GPU type, node sizes may differ after virtual-node decomposition;
    single-node configurations go up to the largest node of the type, and
    multi-node configurations use the *most common* node size of the type
    (whole-node allocations must be uniform so the placement guarantee
    holds).  ``max_gpus`` truncates configurations larger than a per-job cap.
    """
    configs: list[Configuration] = []
    for gpu_type in cluster.gpu_types:
        nodes = cluster.nodes_of_type(gpu_type)
        largest = max(n.num_gpus for n in nodes)
        configs.extend(single_node_configs(gpu_type, largest))

        # Whole-node set: only nodes of the modal (most common) size take
        # part in multi-node allocations for this type.
        sizes: dict[int, int] = {}
        for n in nodes:
            sizes[n.num_gpus] = sizes.get(n.num_gpus, 0) + 1
        modal_size = max(sizes, key=lambda s: (sizes[s], s))
        modal_count = sizes[modal_size]
        configs.extend(multi_node_configs(gpu_type, modal_count, modal_size))

    if max_gpus is not None:
        configs = [c for c in configs if c.num_gpus <= max_gpus]
    # Deterministic order: by type appearance then size.
    order = {t: i for i, t in enumerate(cluster.gpu_types)}
    configs.sort(key=lambda c: (order[c.gpu_type], c.num_gpus, c.num_nodes))
    return configs

