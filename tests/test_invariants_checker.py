"""The round-level invariant checker: unit violations + fault-heavy runs."""

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import make_job
from repro.obs import audit
from repro.schedulers.sia import SiaScheduler
from repro.sim.engine import Simulator, SimulatorConfig, _JobRuntime
from repro.sim.faults import (CheckpointRestoreFaultModel, JobCrashModel,
                              NodeCrashModel, StragglerModel)
from repro.sim.invariants import InvariantChecker, InvariantError
from repro.sim.telemetry import RoundRecord
from repro.core.types import Allocation


def _runtime(job_id, alloc=None, progress=0.0):
    job = make_job(job_id, "resnet18", 0.0, work_scale=0.05)
    rt = _JobRuntime(job=job, estimator=None)
    rt.allocation = alloc
    rt.progress = progress
    return rt


def _record(**kw):
    base = dict(time=0.0, solve_time=0.0)
    base.update(kw)
    return RoundRecord(**base)


def _check(checker, cluster, record, runtimes, fault_hit=None, done=None,
           round_index=0):
    checker.check_round(round_index=round_index, cluster_view=cluster,
                        record=record, runtimes=runtimes,
                        fault_hit=fault_hit or set(), done_ids=done or [])


class TestCheckerUnit:
    def test_rejects_unknown_mode(self):
        """There is no 'log' mode: a checker always raises."""
        with pytest.raises(ValueError, match="invariants must be one of"):
            SimulatorConfig(invariants="log")

    def test_clean_round_passes(self, tiny_cluster):
        node = tiny_cluster.nodes[0]
        alloc = Allocation.build(node.gpu_type, {node.node_id: 1})
        rt = _runtime("a", alloc, progress=5.0)
        record = _record(allocations={"a": (node.gpu_type, 1)},
                         realized={"a": 1.0})
        checker = InvariantChecker()
        _check(checker, tiny_cluster, record, [rt])

    def test_down_node_allocation_detected(self, hetero_cluster):
        # Allocate on a node that is not part of the surviving view.
        down = hetero_cluster.nodes[0]
        survivors = Cluster(nodes=tuple(n for n in hetero_cluster.nodes
                                        if n.node_id != down.node_id))
        alloc = Allocation.build(down.gpu_type, {down.node_id: 1})
        rt = _runtime("a", alloc)
        record = _record(allocations={"a": (down.gpu_type, 1)},
                         realized={"a": 0.5})
        checker = InvariantChecker()
        with pytest.raises(InvariantError, match="down-node"):
            _check(checker, survivors, record, [rt])

    def test_oversubscribed_node_detected(self, tiny_cluster):
        node = tiny_cluster.nodes[0]
        count = node.num_gpus  # two jobs each take the full node
        alloc_a = Allocation.build(node.gpu_type, {node.node_id: count})
        alloc_b = Allocation.build(node.gpu_type, {node.node_id: count})
        record = _record(allocations={"a": (node.gpu_type, count),
                                      "b": (node.gpu_type, count)},
                         realized={"a": 1.0, "b": 1.0})
        checker = InvariantChecker()
        with pytest.raises(InvariantError, match="over-subscribed"):
            _check(checker, tiny_cluster, record,
                   [_runtime("a", alloc_a), _runtime("b", alloc_b)])

    def test_progress_rollback_without_fault_detected(self, tiny_cluster):
        rt = _runtime("a", progress=10.0)
        checker = InvariantChecker()
        _check(checker, tiny_cluster, _record(), [rt])
        rt.progress = 4.0  # went backwards, no fault reported
        with pytest.raises(InvariantError, match="progress went backwards"):
            _check(checker, tiny_cluster, _record(), [rt], round_index=1)

    def test_progress_rollback_with_fault_allowed(self, tiny_cluster):
        rt = _runtime("a", progress=10.0)
        checker = InvariantChecker()
        _check(checker, tiny_cluster, _record(), [rt])
        rt.progress = 4.0
        _check(checker, tiny_cluster, _record(), [rt], fault_hit={"a"},
               round_index=1)

    def test_finished_job_reappearing_detected(self, tiny_cluster):
        rt = _runtime("a")
        checker = InvariantChecker()
        finish = audit.AllocationEvent(kind=audit.FINISH, time=0.0,
                                       job_id="a", round_index=0)
        _check(checker, tiny_cluster, _record(events=[finish]), [rt],
               done=["a"])
        with pytest.raises(InvariantError, match="reappeared"):
            _check(checker, tiny_cluster, _record(), [rt], round_index=1)

    def test_finish_event_mismatch_detected(self, tiny_cluster):
        checker = InvariantChecker()
        # a FINISH audit event with no matching completed job
        finish = audit.AllocationEvent(kind=audit.FINISH, time=0.0,
                                       job_id="ghost", round_index=0)
        with pytest.raises(InvariantError, match="FINISH"):
            _check(checker, tiny_cluster, _record(events=[finish]),
                   [_runtime("a")])

    def test_ledger_allocations_mismatch_detected(self, tiny_cluster):
        """The record's allocations must be the runtimes' own: a missing,
        resized, extra or misattributed entry is rejected (the last one
        even though every per-type total agrees)."""
        node = tiny_cluster.nodes[0]
        alloc = Allocation.build(node.gpu_type, {node.node_id: 1})
        checker = InvariantChecker()
        for recorded in ({}, {"a": (node.gpu_type, 2)},
                         {"a": (node.gpu_type, 1), "b": (node.gpu_type, 1)},
                         {"b": (node.gpu_type, 1)}):
            record = _record(allocations=recorded, realized={"a": 1.0})
            with pytest.raises(InvariantError, match=r"\[ledger\] recorded"):
                _check(checker, tiny_cluster, record, [_runtime("a", alloc)])

    def test_ledger_realized_coverage_detected(self, tiny_cluster):
        node = tiny_cluster.nodes[0]
        alloc = Allocation.build(node.gpu_type, {node.node_id: 1})
        record = _record(allocations={"a": (node.gpu_type, 1)},
                         realized={})  # missing realized entry
        checker = InvariantChecker()
        with pytest.raises(InvariantError, match="realized"):
            _check(checker, tiny_cluster, record, [_runtime("a", alloc)])


def _run(cluster, seed, invariants="strict", **cfg_kw):
    jobs = [make_job(f"j{i}", model, submit_time=i * 45.0, work_scale=0.02)
            for i, model in enumerate(
                ["resnet18", "resnet50", "deepspeech2", "resnet18", "bert"])]
    config = SimulatorConfig(seed=seed, obs_noise=0.1, rate_noise=0.1,
                             invariants=invariants, resilient=True,
                             **cfg_kw)
    sim = Simulator(cluster, SiaScheduler(), jobs, config)
    return sim, sim.run()


class TestInvariantsOverFaultHeavyRuns:
    """Strict invariants must hold on real engine rounds under every fault
    model at once, across seeds."""

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_strict_passes_under_fault_storm(self, hetero_cluster, seed):
        sim, result = _run(
            hetero_cluster, seed,
            fault_models=[
                NodeCrashModel(rate=2.0, seed=seed + 1),
                StragglerModel(rate=10.0, slowdown=0.4, seed=seed + 2),
                JobCrashModel(rate=4.0, seed=seed + 3),
                CheckpointRestoreFaultModel(failure_prob=0.3, seed=seed + 4),
            ])
        assert result.rounds
        assert result.total_fault_events > 0
        assert sim.state.invariants is not None  # every round was checked

    def test_strict_passes_without_faults(self, hetero_cluster):
        sim, result = _run(hetero_cluster, seed=5)
        assert result.rounds
        assert sim.state.invariants is not None  # every round was checked

    def test_off_builds_no_checker(self, hetero_cluster):
        sim, result = _run(hetero_cluster, seed=5, invariants="off")
        assert result.rounds
        assert sim.state.invariants is None

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SimulatorConfig(invariants="very-strict")
