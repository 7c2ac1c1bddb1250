"""Checkpoint format, atomic writes, and bit-identical resume."""

import gc
import pickle
import types

import pytest

from repro.atomicio import atomic_write_bytes, atomic_write_text
from repro.cluster import presets
from repro.jobs.job import make_job
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers.pollux import PolluxScheduler
from repro.schedulers.sia import SiaScheduler
from repro.sim import checkpoint as ckpt
from repro.sim.chaos import diff_results
from repro.sim.checkpoint import (CheckpointConfig, CheckpointCorruptError,
                                  CheckpointError, CheckpointState)
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.faults import JobCrashModel, NodeCrashModel
from repro.sim.telemetry import JobRecord
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer


def _jobs(n=4, scale=0.02):
    return [make_job(f"job-{i}", "resnet50" if i % 2 else "resnet18",
                     submit_time=i * 60.0, work_scale=scale)
            for i in range(n)]


def _config(**kw):
    base = dict(seed=3, obs_noise=0.05, rate_noise=0.05,
                fault_models=[NodeCrashModel(rate=1.0, seed=11),
                              JobCrashModel(rate=2.0, seed=12)],
                resilient=True)
    base.update(kw)
    return SimulatorConfig(**base)


def _sim(cluster, scheduler=SiaScheduler, **kw):
    return Simulator(cluster, scheduler(), _jobs(), _config(**kw))


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"hello world")
        assert path.read_bytes() == b"hello world"
        assert not path.with_name("out.bin.tmp").exists()

    def test_writes_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "héllo")
        assert path.read_text() == "héllo"

    @pytest.mark.parametrize("fatal_stage",
                             ["pre_write", "mid_write", "pre_rename"])
    def test_crash_before_rename_preserves_old_file(self, tmp_path,
                                                    fatal_stage):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"original")

        def hook(stage):
            if stage == fatal_stage:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write_bytes(path, b"replacement", crash_hook=hook)
        assert path.read_bytes() == b"original"
        assert not path.with_name("out.bin.tmp").exists()

    def test_crash_after_rename_keeps_new_file(self, tmp_path):
        path = tmp_path / "out.bin"

        def hook(stage):
            if stage == "post_rename":
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            atomic_write_bytes(path, b"replacement", crash_hook=hook)
        assert path.read_bytes() == b"replacement"


def _reachable(root, cls) -> bool:
    """Whether an instance of ``cls`` is reachable from ``root`` through
    object references (classes and modules are not followed)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, cls):
            return True
        stack.extend(gc.get_referents(obj))
    return False


class _TracerHolder:
    """Module-level so pickle can serialize it (stands in for a scheduler
    carrying tracer attributes)."""


class TestCheckpointFile:
    def _state(self, **kw):
        base = dict(round_index=7, now=420.0, arrival_idx=2, arrivals=[],
                    active={}, finished=[], result=None, execution=None,
                    fault_models=[], scheduler=None, metrics=None,
                    invariants=None)
        base.update(kw)
        return CheckpointState(**base)

    def test_round_trip(self, tmp_path):
        path = ckpt.checkpoint_path(tmp_path, 7)
        ckpt.write_checkpoint(self._state(), path)
        loaded = ckpt.read_checkpoint(path)
        assert loaded.round_index == 7
        assert loaded.now == 420.0
        assert loaded.arrival_idx == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            ckpt.read_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupted_payload_detected(self, tmp_path):
        path = ckpt.checkpoint_path(tmp_path, 1)
        ckpt.write_checkpoint(self._state(round_index=1), path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            ckpt.read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = ckpt.checkpoint_path(tmp_path, 1)
        ckpt.write_checkpoint(self._state(round_index=1), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 10])
        with pytest.raises(CheckpointCorruptError):
            ckpt.read_checkpoint(path)

    def test_garbage_header_detected(self, tmp_path):
        path = tmp_path / "ckpt-00000001.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruptError):
            ckpt.read_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = ckpt.checkpoint_path(tmp_path, 1)
        ckpt.write_checkpoint(self._state(round_index=1), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        # v1 stored finished jobs as runtimes; v2 could hold a wrapped
        # scheduler class that no longer exists.
        for version in (b"v999", b"v1", b"v2"):
            parts = header.split(b" ")
            parts[1] = version
            path.write_bytes(b" ".join(parts) + b"\n" + payload)
            with pytest.raises(CheckpointError) as err:
                ckpt.read_checkpoint(path)
            assert not isinstance(err.value, CheckpointCorruptError)

    def test_latest_valid_falls_back_past_corrupt(self, tmp_path):
        for i in (2, 4, 6):
            ckpt.write_checkpoint(self._state(round_index=i),
                                  ckpt.checkpoint_path(tmp_path, i))
        newest = ckpt.checkpoint_path(tmp_path, 6)
        newest.write_bytes(newest.read_bytes()[:40])
        state, path, skipped = ckpt.latest_valid_checkpoint(tmp_path)
        assert state.round_index == 4
        assert path.name == "ckpt-00000004.ckpt"
        assert [p.name for p in skipped] == ["ckpt-00000006.ckpt"]

    def test_latest_valid_capped_by_round(self, tmp_path):
        for i in (2, 4, 6):
            ckpt.write_checkpoint(self._state(round_index=i),
                                  ckpt.checkpoint_path(tmp_path, i))
        ckpt.checkpoint_path(tmp_path, 4).write_bytes(b"garbage")
        state, path, skipped = ckpt.latest_valid_checkpoint(tmp_path,
                                                            max_round=5)
        assert state.round_index == 2
        assert [p.name for p in skipped] == ["ckpt-00000004.ckpt"]
        with pytest.raises(CheckpointError):
            ckpt.latest_valid_checkpoint(tmp_path, max_round=1)

    def test_latest_valid_empty_dir(self, tmp_path):
        with pytest.raises(CheckpointError):
            ckpt.latest_valid_checkpoint(tmp_path)

    def test_all_corrupt_raises(self, tmp_path):
        for i in (1, 2):
            path = ckpt.checkpoint_path(tmp_path, i)
            ckpt.write_checkpoint(self._state(round_index=i), path)
            path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            ckpt.latest_valid_checkpoint(tmp_path)

    def test_prune_keeps_newest(self, tmp_path):
        for i in range(1, 6):
            ckpt.write_checkpoint(self._state(round_index=i),
                                  ckpt.checkpoint_path(tmp_path, i))
        deleted = ckpt.prune_checkpoints(tmp_path, keep=2)
        remaining = [p.name for p in ckpt.list_checkpoints(tmp_path)]
        assert remaining == ["ckpt-00000004.ckpt", "ckpt-00000005.ckpt"]
        assert len(deleted) == 3

    def test_prune_keep_zero_keeps_all(self, tmp_path):
        for i in range(1, 4):
            ckpt.write_checkpoint(self._state(round_index=i),
                                  ckpt.checkpoint_path(tmp_path, i))
        assert ckpt.prune_checkpoints(tmp_path, keep=0) == []
        assert len(ckpt.list_checkpoints(tmp_path)) == 3

    def test_tracers_stripped_from_payload(self):
        holder = _TracerHolder()
        holder.tracer = Tracer()
        holder.tracer.instant("not-serialized")
        holder.null = NULL_TRACER
        payload = ckpt.dumps_state(self._state(scheduler=holder))
        restored = ckpt.loads_state(payload)
        assert restored.scheduler.tracer is NULL_TRACER
        assert restored.scheduler.null is NULL_TRACER

    @pytest.mark.parametrize("tracer", [Tracer(), NullTracer(), NULL_TRACER],
                             ids=["tracer", "null", "shared-null"])
    def test_any_tracer_pickles_as_null_tracer(self, tracer):
        tracer.instant("not-serialized")
        assert pickle.loads(pickle.dumps(tracer)) is NULL_TRACER

    def test_loads_rejects_non_state_payload(self):
        with pytest.raises(CheckpointCorruptError):
            ckpt.loads_state(pickle.dumps({"not": "a state"}))


class TestEngineCheckpointResume:
    def test_cadence_and_pruning(self, tmp_path, hetero_cluster):
        sim = _sim(hetero_cluster,
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=3, keep=2))
        result = sim.run()
        files = ckpt.list_checkpoints(tmp_path)
        assert len(files) == 2  # pruned down to keep=2
        assert result.rounds
        assert sim.metrics.snapshot().get("checkpoint.writes", 0) >= 2

    @pytest.mark.parametrize("scheduler", [SiaScheduler, PolluxScheduler],
                             ids=["sia", "pollux"])
    def test_resume_is_bit_identical(self, tmp_path, hetero_cluster,
                                     scheduler):
        reference = _sim(hetero_cluster, scheduler).run()

        sim = _sim(hetero_cluster, scheduler,
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=4, keep=0))
        sim.run()
        state, path, skipped = ckpt.latest_valid_checkpoint(tmp_path)
        assert not skipped
        assert state.active
        for runtime in state.active.values():
            # Pollux's one state per job survives pickling as one object.
            states = {id(s) for s in runtime.estimator._types.values()}
            assert len(states) == (1 if scheduler is PolluxScheduler
                                   else len(hetero_cluster.gpu_types))
        # Resume from a mid-run checkpoint on a *fresh* simulator.
        resumed = _sim(hetero_cluster, scheduler).run(resume_from=path)
        assert diff_results(reference, resumed) == []

    def test_resume_from_directory_picks_newest(self, tmp_path,
                                                hetero_cluster):
        sim = _sim(hetero_cluster,
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=4, keep=0))
        reference = sim.run()
        newest = ckpt.list_checkpoints(tmp_path)[-1]
        expected = ckpt.read_checkpoint(newest).round_index
        fresh = _sim(hetero_cluster)
        resumed = fresh.run(resume_from=tmp_path)
        assert len(resumed.rounds) == len(reference.rounds)
        assert fresh.metrics.snapshot().get("checkpoint.restores") == 1
        assert expected <= len(resumed.rounds)

    def test_resume_refuses_different_cluster(self, tmp_path, hetero_cluster,
                                              tiny_cluster):
        sim = _sim(hetero_cluster,
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=2, keep=0))
        sim.run()
        other = Simulator(tiny_cluster, SiaScheduler(), _jobs(), _config())
        with pytest.raises(CheckpointError):
            other.run(resume_from=tmp_path)

    def test_finished_jobs_stored_as_records(self, tmp_path, hetero_cluster):
        reference = _sim(hetero_cluster).run()
        expected = {record.job_id: record for record in reference.jobs}
        _sim(hetero_cluster,
             checkpoint=CheckpointConfig(directory=tmp_path, every_rounds=2,
                                         keep=0)).run()
        states = [ckpt.read_checkpoint(path)
                  for path in ckpt.list_checkpoints(tmp_path)]
        state = next((s for s in states if s.finished and s.active), None)
        assert state is not None, "no checkpoint with both finished and " \
            "active jobs"

        assert all(isinstance(r, JobRecord) for r in state.finished)
        for record in state.finished:
            assert record == expected[record.job_id]
        assert not _reachable(state.finished, JobPerfEstimator)

    def test_save_checkpoint_requires_config(self, hetero_cluster):
        sim = _sim(hetero_cluster)
        with pytest.raises(CheckpointError):
            sim.save_checkpoint()

    def test_resumed_run_strips_and_reinjects_tracer(self, tmp_path,
                                                     hetero_cluster):
        sim = _sim(hetero_cluster, tracer=Tracer(),
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=3, keep=0))
        sim.run()
        tracer = Tracer()
        fresh = _sim(hetero_cluster, tracer=tracer)
        fresh.run(resume_from=tmp_path)
        # the restored scheduler talks to the new process's tracer
        assert fresh.scheduler.tracer is tracer
        assert any(s.name == "round" for s in tracer.spans)


class TestLedgerContinuity:
    """A resumed run's goodput ledger must be indistinguishable from the
    uninterrupted run's — the property the counterfactual diff aligner
    leans on when it rebuilds ledgers for both futures."""

    def test_ledger_identical_across_resume(self, tmp_path, hetero_cluster):
        from repro.obs.ledger import GoodputLedger

        reference = _sim(hetero_cluster).run()
        sim = _sim(hetero_cluster,
                   checkpoint=CheckpointConfig(directory=tmp_path,
                                               every_rounds=4, keep=0))
        sim.run()
        mid = ckpt.list_checkpoints(tmp_path)[1]
        assert 0 < ckpt.read_checkpoint(mid).round_index \
            < len(reference.rounds)
        resumed = _sim(hetero_cluster).run(resume_from=mid)

        ref_ledger = GoodputLedger.from_result(reference)
        res_ledger = GoodputLedger.from_result(resumed)
        assert ref_ledger.entries == res_ledger.entries
        assert ref_ledger.rounds() == res_ledger.rounds()
        for job_id in ref_ledger.job_ids():
            assert ref_ledger.for_job(job_id) == res_ledger.for_job(job_id)
