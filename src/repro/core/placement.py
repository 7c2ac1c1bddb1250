"""Placement: bind configurations to concrete nodes (Sections 3.1 and 3.3).

Placement rules from the paper:

(a) partial-node allocations must not be split across two nodes;
(b) whole-node allocations must take whole nodes;
(c) if fragmentation prevents (a)/(b), evict some jobs and try again.

The placement is incremental: jobs keeping their configuration keep their
exact GPUs (no gratuitous migration); everything else is (re)placed with a
best-fit heuristic that prefers a job's previous nodes.  If the incremental
pass fails, a full repack (largest-first) runs; jobs that still cannot be
placed are dropped from the round's assignment (they stay queued), which is
the "evict and retry" rule — the paper observes such evictions are rare.

Occupancy is one ``{node_id: GPUs used}`` dict per pass, the same map the
baselines book into (:func:`repro.schedulers.base.pack_gpus`).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation, Configuration


def place(cluster: Cluster, assignments: dict[str, Configuration],
          previous: dict[str, Allocation],
          pinned: frozenset[str] | set[str] = frozenset(),
          ) -> dict[str, Allocation]:
    """Place ``assignments`` given the previous round's allocations.

    Returns job id -> allocation; an assigned job that is absent was
    evicted (it stays queued this round).  ``pinned`` jobs (non-preemptive
    jobs and reservations, Section 3.4) must keep their exact previous
    GPUs: they are immovable even during a fragmentation repack.  Raises
    ``ValueError`` if a kept allocation does not fit (:meth:`Cluster.book`).
    """
    # Pass 1: pin jobs whose configuration did not change.
    allocations: dict[str, Allocation] = {}
    used: dict[int, int] = {}
    pending: list[tuple[str, Configuration]] = []
    for job_id, config in assignments.items():
        prev = previous.get(job_id)
        if prev is not None and prev.configuration() == config:
            _keep(cluster, prev, used)
            allocations[job_id] = prev
        else:
            if job_id in pinned and prev is not None:
                raise ValueError(
                    f"pinned job {job_id!r} cannot change configuration")
            pending.append((job_id, config))

    # Pass 2: place changed/new jobs, multi-node (whole-node) first,
    # then larger single-node allocations.
    pending.sort(key=lambda item: (-item[1].num_nodes, -item[1].num_gpus))
    for job_id, config in pending:
        allocation = _try_place(cluster, used, config, previous.get(job_id))
        if allocation is None:
            # Pass 3 (rule c): fragmentation — full repack from scratch.
            return _repack(cluster, assignments, previous, pinned)
        allocations[job_id] = allocation
    return allocations


def _keep(cluster: Cluster, allocation: Allocation,
          used: dict[int, int]) -> None:
    """Book an allocation's exact GPUs, refusing one that does not fit."""
    why = cluster.book(allocation, used)
    if why is not None:
        raise ValueError(why)


def _try_place(cluster: Cluster, used: dict[int, int],
               config: Configuration,
               previous: Allocation | None) -> Allocation | None:
    preferred = set(previous.node_ids) if previous is not None else set()
    nodes = cluster.nodes_of_type(config.gpu_type)
    if config.num_nodes > 1:
        # Rule (b): multi-node allocations take whole, empty nodes.
        per_node = config.num_gpus // config.num_nodes
        if per_node * config.num_nodes != config.num_gpus:
            return None
        candidates = [n.node_id for n in nodes
                      if n.num_gpus == per_node and not used.get(n.node_id)]
        if len(candidates) < config.num_nodes:
            return None
        candidates.sort(key=lambda nid: (nid not in preferred, nid))
        chosen = candidates[:config.num_nodes]
        for node_id in chosen:
            used[node_id] = per_node
        return Allocation.build(config.gpu_type,
                                dict.fromkeys(chosen, per_node))
    # Rule (a): a partial-node allocation fits inside one node.  Best-fit:
    # the node with the least sufficient free capacity, with the job's
    # previous node winning ties, and whole-node requests preferring empty
    # nodes to keep fragmentation down.
    best_key = None
    for node in nodes:
        free = node.num_gpus - used.get(node.node_id, 0)
        if free < config.num_gpus:
            continue
        key = (free, node.node_id not in preferred, node.node_id)
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None:
        return None
    node_id = best_key[2]
    used[node_id] = used.get(node_id, 0) + config.num_gpus
    return Allocation.build(config.gpu_type, {node_id: config.num_gpus})


def _repack(cluster: Cluster, assignments: dict[str, Configuration],
            previous: dict[str, Allocation],
            pinned: frozenset[str] | set[str]) -> dict[str, Allocation]:
    """Place everything from an empty cluster, largest first; jobs that do
    not fit are evicted (stay queued this round).  Pinned jobs keep their
    exact previous GPUs and are re-acquired first."""
    allocations: dict[str, Allocation] = {}
    used: dict[int, int] = {}
    for job_id in sorted(pinned):
        prev = previous.get(job_id)
        if prev is None or job_id not in assignments:
            continue
        _keep(cluster, prev, used)
        allocations[job_id] = prev
    ordered = sorted(
        ((jid, cfg) for jid, cfg in assignments.items()
         if jid not in allocations),
        key=lambda item: (-item[1].num_nodes, -item[1].num_gpus, item[0]))
    for job_id, config in ordered:
        allocation = _try_place(cluster, used, config, previous.get(job_id))
        if allocation is not None:
            allocations[job_id] = allocation
    return allocations
