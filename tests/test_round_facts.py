"""Each round fact is stored once.

A result's tallies (active and running jobs, GPUs in use, degraded rounds,
censored jobs, node failures) derive from its stored records; one check,
``Cluster.book``, decides whether an allocation fits; and queue wait is
read from ``RoundRecord.queued``.  The tallies are compared against the
engine's own counts, and the fit check and queue wait against the former
definitions kept in ``tests/oracle.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import io
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, NodeGroup
from repro.core import placement
from repro.core.fork import scheduler_jobs
from repro.core.health import HealthConfig
from repro.core.types import Allocation
from repro.obs import audit
from repro.obs.ledger import queue_wait_by_job
from repro.obs.tracer import Tracer
from repro.schedulers.base import RoundPlan, carry_forward_plan
from repro.schedulers.rigid import FIFOScheduler
from repro.sim.chaos import CrashAt, SimulatedCrash, diff_results
from repro.sim.checkpoint import CheckpointConfig
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.faults import NodeCrashModel
from repro.workloads import helios_trace
from tests.oracle import (reference_carry_forward, reference_keep,
                          reference_queue_wait, reference_validate)


class FlakyFIFO(FIFOScheduler):
    """FIFO whose planner raises on its 3rd, 4th and 9th call, so a
    resilient run carries those rounds forward."""

    calls = 0

    def decide(self, views, cluster, previous, now):
        self.calls += 1
        if self.calls in (3, 4, 9):
            raise RuntimeError("planner down")
        return super().decide(views, cluster, previous, now)


#: 16 GPUs for 14 jobs, capped at 1.5 h of a 3 h arrival window: jobs
#: queue, some still queue in the last round, and six are never admitted.
CLUSTER = Cluster.from_groups([NodeGroup("t4", 3, 4), NodeGroup("a100", 1, 8)])


def _simulator(checkpoint: CheckpointConfig | None = None) -> Simulator:
    trace = helios_trace(seed=3, num_jobs=14, window_hours=3.0,
                         work_scale_factor=0.3)
    config = SimulatorConfig(
        seed=1, max_hours=1.5, resilient=True, invariants="strict",
        health=HealthConfig(), tracer=Tracer(), checkpoint=checkpoint,
        fault_models=[NodeCrashModel(rate=0.5, seed=5)])
    return Simulator(CLUSTER, FlakyFIFO(),
                     scheduler_jobs("fifo", trace.jobs, CLUSTER, trace.seed),
                     config)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The uninterrupted run, the same run killed after round 8 and resumed
    from its round-6 checkpoint, and the uninterrupted run read back from
    its result file."""
    directory = tmp_path_factory.mktemp("ckpt")
    reference = _simulator().run()
    with pytest.raises(SimulatedCrash):
        _simulator(CheckpointConfig(directory, every_rounds=3,
                                    crash_hook=CrashAt(8, "round_end"))).run()
    resumed = _simulator(CheckpointConfig(directory, every_rounds=3)) \
        .run(resume_from=directory)
    path = directory / "run.json"
    io.save_result(reference, path)
    return SimpleNamespace(reference=reference, resumed=resumed, path=path,
                           loaded=io.load_result(path))


class TestDerivedTallies:
    def test_the_run_is_capped_contended_faulted_and_carried(self, runs):
        result = runs.reference
        assert any(rnd.queued for rnd in result.rounds)
        assert result.censored > 0 and result.node_failures > 0
        assert result.degraded_rounds > 0
        assert diff_results(result, runs.resumed) == []

    def test_round_span_active_jobs_is_the_record_tally(self, runs):
        """The engine's active count at planning, as its ``round`` span
        records it, equals the count derived from the record, on every
        round of the uninterrupted run and of the resumed one; the running
        count is the jobs the executor ran (each has a realized goodput)."""
        for result, first in ((runs.reference, 0), (runs.resumed, 6)):
            spans = [span for span in result.spans if span.name == "round"]
            assert [span.attrs["index"] for span in spans] == \
                list(range(first, len(result.rounds)))
            for span in spans:
                record = result.rounds[span.attrs["index"]]
                assert span.attrs["active_jobs"] == record.active_jobs
                assert record.running_jobs == len(record.realized)

    def test_censored_counts_jobs_active_at_the_cap_and_never_admitted(
            self, runs):
        result = runs.reference
        last = result.rounds[-1]
        finished_last = {event.job_id for event in last.events
                         if event.kind == audit.FINISH}
        active_at_cap = (set(last.allocations) | set(last.queued)) \
            - finished_last
        seen = {job_id for rnd in result.rounds
                for job_id in (*rnd.allocations, *rnd.queued)}
        never_admitted = [j for j in result.jobs if j.job_id not in seen]
        assert active_at_cap and never_admitted
        for outcome in (result, runs.resumed, runs.loaded):
            assert outcome.censored == len(active_at_cap) + len(never_admitted)

    def test_node_failures_count_node_crash_events(self, runs):
        crashes = sum(1 for rnd in runs.reference.rounds
                      for event in rnd.fault_events
                      if event.kind == NodeCrashModel.kind)
        assert crashes > 0
        for outcome in (runs.reference, runs.resumed, runs.loaded):
            assert outcome.node_failures == crashes

    def test_result_file_rewrites_byte_for_byte(self, runs, tmp_path):
        again = tmp_path / "again.json"
        io.save_result(runs.loaded, again)
        assert again.read_bytes() == runs.path.read_bytes()


class TestQueueWait:
    def test_matches_the_submit_finish_reference(self, runs):
        assert runs.reference.rounds[-1].queued  # the last round counts too
        for result in (runs.reference, runs.resumed, runs.loaded):
            assert queue_wait_by_job(result) == reference_queue_wait(result)


#: a fixed two-type cluster: node 0..2 are t4 (4, 4, 2 GPUs), node 3 is
#: a100 (8 GPUs); node 9 is never present.
FIT_CLUSTER = Cluster(nodes=(Node(0, "t4", 4, 0), Node(1, "t4", 4, 1),
                             Node(2, "t4", 2, 2), Node(3, "a100", 8, 3)))
_NODE_IDS = st.sampled_from([0, 1, 2, 3, 9])


@st.composite
def _allocations(draw):
    """Job id -> allocation, each on one or two nodes of any id and either
    type, with counts near the nodes' sizes (equal to the free GPUs and one
    more are both common)."""
    allocations = {}
    for index in range(draw(st.integers(1, 5))):
        node_ids = draw(st.lists(_NODE_IDS, min_size=1, max_size=2,
                                 unique=True))
        allocations[f"j{index}"] = Allocation.build(
            draw(st.sampled_from(["t4", "a100"])),
            {node_id: draw(st.integers(1, 5)) for node_id in node_ids})
    return allocations


class TestFitCheck:
    """``Cluster.book`` decides as each former check did, and books the
    same per-node counts."""

    @settings(max_examples=300, deadline=None)
    @given(allocations=_allocations())
    def test_validate_matches_reference(self, allocations):
        try:
            expected = reference_validate(allocations, FIT_CLUSTER)
        except ValueError:
            expected = None
        plan = RoundPlan(allocations=allocations)
        if expected is None:
            with pytest.raises(ValueError):
                plan.validate(FIT_CLUSTER)
            return
        plan.validate(FIT_CLUSTER)
        used: dict[int, int] = {}
        for alloc in allocations.values():
            assert FIT_CLUSTER.book(alloc, used) is None
        assert used == expected

    @settings(max_examples=300, deadline=None)
    @given(allocations=_allocations(), active=st.sets(
        st.sampled_from([f"j{i}" for i in range(5)])))
    def test_carry_forward_matches_reference(self, allocations, active):
        views = [SimpleNamespace(job_id=job_id) for job_id in sorted(active)]
        kept, used = reference_carry_forward(allocations, FIT_CLUSTER, active)
        plan = carry_forward_plan(allocations, FIT_CLUSTER, views)
        assert plan.allocations == kept
        booked: dict[int, int] = {}
        for alloc in plan.allocations.values():
            assert FIT_CLUSTER.book(alloc, booked) is None
        assert booked == used
        plan.validate(FIT_CLUSTER)

    @settings(max_examples=300, deadline=None)
    @given(allocations=_allocations())
    def test_keep_matches_reference(self, allocations):
        """Placement keeps only allocations it validated on the same nodes,
        so the former ``_keep`` never met a node of another type and did
        not check it; the shared check refuses one."""
        used: dict[int, int] = {}
        expected: dict[int, int] = {}
        for alloc in allocations.values():
            types = FIT_CLUSTER.node_types
            wrong_type = any(types.get(node_id, alloc.gpu_type)
                             != alloc.gpu_type for node_id in alloc.node_ids)
            try:
                reference_keep(alloc, dict(expected), FIT_CLUSTER.node_sizes)
                fits = not wrong_type
            except (KeyError, ValueError):
                fits = False
            if not fits:
                with pytest.raises(ValueError):
                    placement._keep(FIT_CLUSTER, alloc, used)
                assert used == expected  # a refused allocation books nothing
                return
            placement._keep(FIT_CLUSTER, alloc, used)
            reference_keep(alloc, expected, FIT_CLUSTER.node_sizes)
            assert used == expected

    @pytest.mark.parametrize("alloc, why", [
        (Allocation.build("t4", {0: 3}), None),  # exactly the free GPUs
        (Allocation.build("t4", {0: 4}),
         "node 0 over-subscribed: cannot acquire 4 GPUs (3 free)"),
        (Allocation.build("t4", {9: 1}), "unknown node 9"),
        (Allocation.build("a100", {0: 1}), "node 0 is t4, allocation says a100"),
        (Allocation.build("t4", {0: 2, 3: 1}),
         "node 3 is a100, allocation says t4"),
    ])
    def test_books_or_says_why_and_books_nothing(self, alloc, why):
        used = {0: 1}
        got = FIT_CLUSTER.book(alloc, used)
        if why is None:
            assert got is None and used == {0: 4}
        else:
            assert why in got and used == {0: 1}
