"""Property test for the Section 3.3 placement guarantee.

The paper invokes the Submesh Shape Covering theorem: restricting
single-node allocations to powers of two and multi-node allocations to
whole nodes guarantees a placement exists for *any* mix of valid
configurations that fits per-type GPU capacity (with multi-node jobs not
sharing nodes).  Our placement's repack must therefore never evict when
handed such a mix — this is what lets Sia's ILP use simple per-type
capacity constraints instead of node-level ones.  The guarantee holds on
the incremental path too: with the previous round's allocations as
``previous``, a fragmented incremental pass falls back to the repack, and
no job is dropped either way.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import presets
from repro.core.configs import build_config_set
from repro.core.placement import place
from repro.core.types import Configuration
from repro.schedulers.base import RoundPlan


@st.composite
def capacity_respecting_assignments(draw, keep_from=None):
    """Random multisets of valid configurations within per-type capacity,
    with multi-node demand counted in whole empty nodes.  Job ids are
    ``j0, j1, ...``; a job also in ``keep_from`` may keep its
    configuration from there."""
    cluster = presets.heterogeneous()
    configs = build_config_set(cluster)
    # Track remaining whole nodes and loose GPU capacity per type.
    free_nodes = {t: len(cluster.nodes_of_type(t))
                  for t in cluster.gpu_types}
    node_size = {t: cluster.max_node_size(t) for t in cluster.gpu_types}
    partial_capacity = {t: 0 for t in cluster.gpu_types}

    assignments: dict[str, Configuration] = {}
    n = draw(st.integers(0, 14))
    for i in range(n):
        kept = (keep_from or {}).get(f"j{i}")
        if kept is not None and draw(st.booleans()):
            config = kept
        else:
            config = draw(st.sampled_from(configs))
        t = config.gpu_type
        if config.num_nodes > 1:
            if free_nodes[t] < config.num_nodes:
                continue
            free_nodes[t] -= config.num_nodes
        else:
            # Partial allocations consume loose capacity; open a new node
            # when the current loose pool cannot hold this one.
            if partial_capacity[t] < config.num_gpus:
                needed = -(-(config.num_gpus - partial_capacity[t])
                           // node_size[t])
                if free_nodes[t] < needed:
                    continue
                free_nodes[t] -= needed
                partial_capacity[t] += needed * node_size[t]
            partial_capacity[t] -= config.num_gpus
        assignments[f"j{i}"] = config
    return assignments


@st.composite
def successive_rounds(draw):
    """Two capacity-respecting mixes whose job ids overlap."""
    first = draw(capacity_respecting_assignments())
    return first, draw(capacity_respecting_assignments(keep_from=first))


def assert_guarantee(cluster, assignments, allocations) -> None:
    """Every job placed, the plan valid, and multi-node jobs alone on
    their nodes."""
    evicted = set(assignments) - set(allocations)
    assert not evicted, (assignments, evicted)
    RoundPlan(allocations=allocations).validate(cluster)
    multi_nodes: set[int] = set()
    for job_id, alloc in allocations.items():
        assert alloc.configuration() == assignments[job_id]
        if assignments[job_id].num_nodes > 1:
            multi_nodes |= set(alloc.node_ids)
    for job_id, alloc in allocations.items():
        if assignments[job_id].num_nodes == 1:
            assert not (set(alloc.node_ids) & multi_nodes)


@settings(max_examples=200, deadline=None)
@given(assignments=capacity_respecting_assignments())
def test_valid_mixes_always_place_without_eviction(assignments):
    cluster = presets.heterogeneous()
    assert_guarantee(cluster, assignments, place(cluster, assignments, {}))


@settings(max_examples=200, deadline=None)
@given(rounds=successive_rounds())
def test_incremental_placement_never_evicts(rounds):
    first, second = rounds
    cluster = presets.heterogeneous()
    previous = place(cluster, first, {})
    allocations = place(cluster, second, previous)
    assert_guarantee(cluster, second, allocations)
