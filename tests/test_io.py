"""Tests for trace/result JSON serialization."""

import json

import pytest

from repro import io
from repro.cluster import presets
from repro.core.health import HealthEvent
from repro.core.types import AdaptivityMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.metrics import summarize
from repro.obs.ledger import GoodputLedger, LedgerEntry
from repro.obs.slo import Alert
from repro.obs.stream import AlertStreamObserver, LedgerStreamObserver
from repro.schedulers import SiaScheduler
from repro.sim import simulate
from repro.workloads import philly_trace
from repro.workloads.trace import Trace


class TestTraceRoundtrip:
    def test_plain_trace(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=20)
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        loaded = io.load_trace(path)
        assert loaded.name == trace.name
        assert loaded.seed == trace.seed
        for a, b in zip(trace.jobs, loaded.jobs):
            assert a == b

    def test_exotic_jobs_roundtrip(self, tmp_path):
        jobs = [
            make_job("hybrid", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                     max_gpus=64),
            make_job("rigid", "bert", 10.0, adaptivity=AdaptivityMode.RIGID,
                     fixed_num_gpus=4, fixed_batch_size=48),
            make_job("strong", "resnet18", 20.0,
                     adaptivity=AdaptivityMode.STRONG_SCALING),
            make_job("pinned", "yolov3", 40.0, preemptible=False),
        ]
        path = tmp_path / "trace.json"
        io.save_trace(Trace(name="exotic", jobs=jobs, seed=7), path)
        loaded = io.load_trace(path)
        assert loaded.jobs == jobs
        assert loaded.jobs[0].hybrid == HybridSpec()

    def test_training_workload_key_loads(self):
        job = make_job("j0", "bert", 0.0)
        data = {**io.job_to_dict(job), "workload": "training"}
        assert io.job_from_dict(data) == job

    @pytest.mark.parametrize("workload",
                             ["batch_inference", "latency_inference"])
    def test_other_workload_rejected(self, tmp_path, workload):
        """A file naming a workload this build cannot run fails on load
        instead of running the job as a training job."""
        data = {**io.job_to_dict(make_job("serve", "bert", 0.0)),
                "workload": workload}
        with pytest.raises(ValueError, match="'serve'.*" + workload):
            io.job_from_dict(data)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"kind": "trace",
                                    "format_version": io.FORMAT_VERSION,
                                    "name": "old", "jobs": [data]}))
        with pytest.raises(ValueError, match="'serve'"):
            io.load_trace(path)

    def test_wrong_kind_rejected(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=4)
        path = tmp_path / "x.json"
        io.save_trace(trace, path)
        with pytest.raises(ValueError, match="expected 'result'"):
            io.load_result(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "trace", "format_version": 99,
                                    "name": "x", "jobs": []}))
        with pytest.raises(ValueError, match="format version"):
            io.load_trace(path)


class TestResultRoundtrip:
    @pytest.fixture(scope="class")
    def result(self):
        cluster = presets.heterogeneous()
        jobs = [make_job(f"j{i}", "resnet18", i * 60.0, work_scale=0.05)
                for i in range(3)]
        return simulate(cluster, SiaScheduler(), jobs)

    def test_metrics_preserved(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert summarize(loaded).as_row() == summarize(result).as_row()

    def test_round_records_preserved(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert len(loaded.rounds) == len(result.rounds)
        assert loaded.rounds[0].allocations == result.rounds[0].allocations

    def test_rounds_optional(self, result, tmp_path):
        """Older builds could save a result without its rounds, next to
        fault/backend/alert summaries; such files still load."""
        path = tmp_path / "slim.json"
        io.save_result(result, path)
        payload = json.loads(path.read_text())
        payload.update(rounds=[], fault_counts={"job_crash": 1},
                       backend_counts={"milp": 3}, alert_counts={"x": 1})
        path.write_text(json.dumps(payload))
        loaded = io.load_result(path)
        assert loaded.rounds == []
        assert len(loaded.jobs) == len(result.jobs)
        assert loaded.fault_counts() == {}


class TestAlertsRoundtrip:
    @pytest.fixture(scope="class")
    def alerted(self):
        """A short run SLO-observed under a rule that always fires."""
        from repro.obs.slo import SLOEngine, SLORule
        from repro.obs.stream import SLOObserver
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        engine = SLOEngine([SLORule(
            name="always", metric="solver_fallback_rate", target=1.0,
            comparison=">=", window=4, error_budget=0.5, min_samples=1,
            cooldown=1)])
        result = simulate(cluster, SiaScheduler(), jobs,
                          observers=[SLOObserver(engine)])
        assert result.alert_counts()  # the fixture must actually alert
        return result

    def test_result_json_preserves_alerts(self, alerted, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(alerted, path)
        loaded = io.load_result(path)
        assert loaded.alerts_timeline() == alerted.alerts_timeline()
        assert loaded.alert_counts() == alerted.alert_counts()

    def test_unalerted_result_json_has_no_alert_keys(self, tmp_path):
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        result = simulate(cluster, SiaScheduler(), jobs)
        path = tmp_path / "result.json"
        io.save_result(result, path)
        payload = json.loads(path.read_text())
        assert "alert_counts" not in payload
        assert all("alerts" not in rnd for rnd in payload["rounds"])

    def test_save_load_alerts_jsonl(self, alerted, tmp_path):
        path = tmp_path / "alerts.jsonl"
        AlertStreamObserver(path, "sia").on_finalize(alerted)
        alerts = io.load_alerts(path)
        assert alerts == [a for _, a in alerted.alerts_timeline()]
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("*.part")) == []

    def test_load_alerts_requires_header(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text(json.dumps({"kind": "alert", "rule": "r",
                                    "metric": "m", "round_index": 0,
                                    "time": 0.0, "value": 1.0,
                                    "target": 0.0, "comparison": "<=",
                                    "burn_rate": 1.0, "window": 1}) + "\n")
        with pytest.raises(ValueError, match="header"):
            io.load_alerts(path)

    def test_load_alerts_rejects_unknown_kind(self, alerted, tmp_path):
        path = tmp_path / "alerts.jsonl"
        AlertStreamObserver(path, "sia").on_finalize(alerted)
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="mystery"):
            io.load_alerts(path)


class TestLedgerTrailerAcceptance:
    def test_load_ledger_accepts_streamed_trailer(self, tmp_path):
        """The ``ledger_end`` trailer LedgerStreamObserver appends parses
        to nothing: the file loads to the result's ledger and events."""
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        result = simulate(cluster, SiaScheduler(), jobs)
        path = tmp_path / "ledger.jsonl"
        LedgerStreamObserver(path, "sia").on_finalize(result)
        assert json.loads(path.read_text().splitlines()[-1]) == {
            "kind": "ledger_end", "num_rounds": len(result.rounds)}
        ledger, events = io.load_ledger(path)
        assert ledger.entries == GoodputLedger.from_result(result).entries
        assert events == result.allocation_events()


class TestJsonlLoaders:
    """The one JSONL reader behind every streamed-artifact loader: a body
    needs its header, other headers and unknown kinds are rejected, and
    the streams' completeness trailers parse to nothing."""

    CASES = {
        # header kind: (loader, parsed body item, its line, trailer,
        #               loaded value -> parsed body items)
        "ledger": (
            io.load_ledger,
            LedgerEntry(round_index=0, time=0.0, job_id="j", gpu_type="t4",
                        num_gpus=1, estimated_goodput=2.0),
            lambda e: {"kind": "ledger_entry", **e.to_dict()},
            {"kind": "ledger_end", "num_rounds": 1},
            lambda loaded: loaded[0].entries),
        "alerts": (
            io.load_alerts,
            Alert(rule="r", metric="m", round_index=0, time=0.0, value=1.0,
                  target=0.0, comparison="<=", burn_rate=1.0, window=1),
            lambda a: {"kind": "alert", **a.to_dict()},
            {"kind": "alerts_end", "num_alerts": 1},
            lambda loaded: loaded),
        "health_events": (
            io.load_health_events,
            (0, HealthEvent(kind="quarantine", time=60.0, node_id=3)),
            lambda pair: {"kind": "health_event", "round": pair[0],
                          "event": pair[1].to_dict()},
            {"kind": "health_events_end", "num_rounds": 1},
            lambda loaded: loaded),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_framing(self, kind, tmp_path):
        load, item, to_line, trailer, body = self.CASES[kind]
        header = {"kind": kind, "format_version": io.FORMAT_VERSION,
                  "scheduler_name": "sia"}
        path = tmp_path / f"{kind}.jsonl"

        def write(*lines):
            path.write_text("".join(json.dumps(line) + "\n"
                                    for line in lines))

        write(header, to_line(item), trailer)
        assert body(load(path)) == [item]
        write(to_line(item), trailer)
        with pytest.raises(ValueError, match="missing header"):
            load(path)
        write({**header, "kind": "result"}, to_line(item))
        with pytest.raises(ValueError, match="'result'"):
            load(path)
        write(header, to_line(item), {"kind": "mystery"})
        with pytest.raises(ValueError, match="mystery"):
            load(path)


class TestAtomicWriters:
    """Every repro.io writer goes through the shared atomic helper: a crash
    mid-save must never truncate an existing artifact."""

    @pytest.fixture(scope="class")
    def result(self):
        cluster = presets.heterogeneous()
        jobs = [make_job("j0", "resnet18", 0.0, work_scale=0.05)]
        return simulate(cluster, SiaScheduler(), jobs)

    def test_save_trace_leaves_no_tmp(self, tmp_path):
        trace = philly_trace(seed=0, num_jobs=5)
        path = tmp_path / "trace.json"
        io.save_trace(trace, path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_result_leaves_no_tmp(self, result, tmp_path):
        path = tmp_path / "result.json"
        io.save_result(result, path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_write_preserves_previous_file(self, result,
                                                       tmp_path,
                                                       monkeypatch):
        from repro import atomicio
        path = tmp_path / "result.json"
        io.save_result(result, path)
        before = path.read_bytes()

        original = atomicio.atomic_write_bytes

        def dying_write(p, data, *, crash_hook=None):
            def hook(stage):
                if stage == "mid_write":
                    raise RuntimeError("simulated crash")
            original(p, data, crash_hook=hook)

        monkeypatch.setattr(io, "atomic_write_text",
                            lambda p, text: dying_write(
                                p, text.encode("utf-8")))
        with pytest.raises(RuntimeError, match="simulated crash"):
            io.save_result(result, path)
        assert path.read_bytes() == before  # old artifact untouched
        assert io.load_result(path).scheduler_name == result.scheduler_name
