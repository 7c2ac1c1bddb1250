"""Tests for the streaming exporters (repro.obs.stream): incremental JSONL
with atomic finalize, one round trip per streamed artifact, crash-durable
prefixes, Prometheus exposition, and the determinism contract."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import io
from repro.cluster import presets
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.ledger import GoodputLedger, round_entries
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine, SLORule
from repro.core.health import HealthConfig
from repro.obs import stream
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              HealthEventStreamObserver, JsonlStreamWriter,
                              LedgerStreamObserver, PrometheusSnapshotObserver,
                              SLOObserver, json_object, json_value,
                              parse_prometheus_text, prometheus_text)
from repro.obs.tracer import SpanRecord, Tracer
from repro.schedulers import SiaScheduler
from repro.sim import (Simulator, SimulatorConfig, StragglerModel,
                       TelemetryCorruptionModel, simulate)
from repro.sim.chaos import CrashAt, SimulatedCrash, diff_results
from repro.sim.checkpoint import CheckpointConfig, latest_valid_checkpoint


def jobs(n=2, scale=0.05):
    return [make_job(f"j{i}", "resnet18", i * 60.0, work_scale=scale)
            for i in range(n)]


# -- JSONL writer --------------------------------------------------------------

class TestJsonlStreamWriter:
    def test_lines_land_in_part_until_finalize(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = JsonlStreamWriter(path)
        writer.write({"a": 1})
        writer.flush()
        assert writer.part_path.exists() and not path.exists()
        writer.finalize()
        assert path.exists() and not writer.part_path.exists()
        assert json.loads(path.read_text()) == {"a": 1}

    def test_close_leaves_part_prefix(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = JsonlStreamWriter(path)
        writer.write({"a": 1})
        writer.close()
        assert writer.part_path.exists() and not path.exists()

    def test_write_after_finalize_rejected(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "s.jsonl")
        writer.finalize()
        with pytest.raises(ValueError, match="closed"):
            writer.write({})

    def test_finalize_is_idempotent(self, tmp_path):
        writer = JsonlStreamWriter(tmp_path / "s.jsonl")
        writer.write({"a": 1})
        writer.finalize()
        writer.finalize()  # must not raise


# -- hand-written lines --------------------------------------------------------

#: Values the hand-written lines must write exactly as ``json.dumps`` does.
AWKWARD_VALUES = [
    0, 7, -3, 2**70, 0.0, -0.0, 1.5, 1e-310, 5e-324, 2.2250738585072014e-308,
    1e300, 0.1 + 0.2, math.nan, math.inf, -math.inf, np.float64(2.5),
    np.float64(math.nan), np.float64(-0.0), True, False, None,
    "", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline", "caf\u00e9",
    "\u8c46\u8150", "\U0001f680", "\x00\x1f", [1, "a", None], {"k": [1.5]},
]


class TestHandWrittenLines:
    """The ledger's and the event stream's lines are built by hand.  Each
    must equal ``json.dumps`` of its dict form, byte for byte."""

    @pytest.mark.parametrize("value", AWKWARD_VALUES, ids=repr)
    def test_value(self, value):
        assert json_value(value) == json.dumps(value)

    def test_object(self):
        data = {f"key {i} \u00fc\"": v for i, v in enumerate(AWKWARD_VALUES)}
        assert json_object(data) == json.dumps(data)
        assert json_object({}) == json.dumps({}) == "{}"

    @pytest.mark.parametrize("job_id", ["j0", 'job "7"', "j\u00f6b-\u4e00",
                                        "back\\slash"])
    @pytest.mark.parametrize("rates", [
        (None, None, None), (1.25, None, None), (None, 0.0, None),
        (math.nan, math.inf, -math.inf), (-0.0, 5e-324, 1e-310),
        (np.float64(3.5), np.float64(math.nan), 2.0)])
    def test_ledger_line(self, job_id, rates, tmp_path):
        """The ledger observer's line of each entry, as written the first
        time a (job, allocation) shows and when its part is kept."""
        estimated, realized, throughput = rates
        record = SimpleNamespace(
            time=720.0, allocations={job_id: ("a100", 4)},
            estimates={} if estimated is None else {job_id: estimated},
            realized={} if realized is None else {job_id: realized},
            throughputs={} if throughput is None else {job_id: throughput},
            events=[])
        observer = LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia")
        # A kept 1 must not answer True or 1.0, which hash equal to it.
        for count in (4, 4, 1, True, 1.0):
            record.allocations[job_id] = ("a100", count)
            assert observer.round_lines(record, 12) == [
                json.dumps({"kind": "ledger_entry", **entry.to_dict()})
                + "\n" for entry in round_entries(record, 12)]
        observer.close()

    def test_span_and_event_lines(self, tmp_path):
        tracer = Tracer()
        attrs = {f"a{i}": v for i, v in enumerate(AWKWARD_VALUES)}
        tracer.spans.extend([
            SpanRecord("round", 0.25, 1e-06, 0, None, 0),
            SpanRecord('plan "q"', np.float64(0.5), -0.0, 1, 0, 1,
                       {"flag": True, "job": "caf\u00e9"}),
            SpanRecord("execute", 5e-324, math.inf, 2, 1, 2, dict(attrs))])
        tracer.instant("restore", round=3, ok=False, time=np.float64(1.5))
        tracer.instant("empty")
        observer = EventStreamObserver(tracer, tmp_path / "events.jsonl")
        observer.on_round(None, 0, 60.0)
        lines = observer.writer.part_path.read_text().splitlines(True)
        name, ts, _ = tracer.events[0]
        assert lines == [json.dumps(
            {"kind": "span", "name": span.name, "start": span.start,
             "duration": span.duration, "span_id": span.span_id,
             "parent_id": span.parent_id, "depth": span.depth,
             "attrs": span.attrs}) + "\n" for span in tracer.spans] + [
            json.dumps({"kind": "event", "name": name, "time": ts,
                        "attrs": attrs}) + "\n"
            for name, ts, attrs in tracer.events]
        observer.close()


def span_line(span: SpanRecord) -> str:
    return json.dumps({"kind": "span", "name": span.name,
                       "start": span.start, "duration": span.duration,
                       "span_id": span.span_id, "parent_id": span.parent_id,
                       "depth": span.depth, "attrs": span.attrs}) + "\n"


class TestKeptLineParts:
    """The observers keep parts of lines across rounds: a span name's
    head, the text of attrs whose values are all ``str`` or ``int``, and a
    ledger line's job part.  Every line still equals ``json.dumps`` of its
    dict form."""

    #: attrs that equal a kept ``{"n": 1}`` or ``{"n": 1, "job": "j"}``
    #: but must not read its text.
    LOOKALIKES = [{"n": True}, {"n": 1.0}, {"n": np.float64(1.0)},
                  {"n": None}, {"n": math.nan}, {"n": 1, "job": None}, {}]

    def test_attrs_only_kept_for_str_and_int_values(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(stream, "ATTRS_MEMO_MAX", 3)  # clears, too
        tracer = Tracer()
        observer = EventStreamObserver(tracer, tmp_path / "events.jsonl")
        kept = [{"n": 1}, {"n": 1, "job": "j"}, {"job": "caf\u00e9"}]
        for i, attrs in enumerate(kept + self.LOOKALIKES + kept
                                  + self.LOOKALIKES):
            tracer.spans.append(SpanRecord("execute", 0.5 * i, 1e-6, i,
                                           None, 0, dict(attrs)))
            tracer.instant("mark", **attrs)
            observer.on_round(None, i, 60.0)
            for key in observer._attrs:
                assert all(type(v) in (str, int) for _, v in key)
        lines = observer.writer.part_path.read_text().splitlines(True)
        assert lines[0::2] == [span_line(span) for span in tracer.spans]
        assert lines[1::2] == [
            json.dumps({"kind": "event", "name": name, "time": ts,
                        "attrs": attrs}) + "\n"
            for name, ts, attrs in tracer.events]
        observer.close()

    def test_resumed_faulted_run_writes_json_dumps_lines(self, tmp_path):
        """A faulted run in which a job changes GPU type and count, killed
        and resumed from a checkpoint with fresh observers: every ledger
        line is ``json.dumps`` of its entry, and every span and event line
        ``json.dumps`` of its dict form."""
        def build(tracer, out, crash_hook=None):
            config = SimulatorConfig(
                seed=1, tracer=tracer, health=HealthConfig(),
                fault_models=[TelemetryCorruptionModel(rate=0.2),
                              StragglerModel(rate=2.0)],
                observers=[
                    EventStreamObserver(tracer, out / "events.jsonl"),
                    LedgerStreamObserver(out / "ledger.jsonl", "sia")],
                checkpoint=CheckpointConfig(directory=tmp_path / "ckpt",
                                            every_rounds=5,
                                            crash_hook=crash_hook))
            runs = [make_job(f"j{i}", ("bert", "resnet18", "resnet18")[i % 3],
                             i * 120.0) for i in range(4)]
            return Simulator(presets.heterogeneous(), SiaScheduler(), runs,
                             config)

        with pytest.raises(SimulatedCrash):
            build(Tracer(), tmp_path / "killed", CrashAt(20)).run()
        tracer, out = Tracer(), tmp_path / "resumed"
        result = build(tracer, out).run(resume_from=tmp_path / "ckpt")

        entries = GoodputLedger.from_result(result).entries
        held = {}
        for entry in entries:
            held.setdefault(entry.job_id, set()).add((entry.gpu_type,
                                                      entry.num_gpus))
        assert any(len({t for t, _ in pairs}) > 1
                   and len({n for _, n in pairs}) > 1
                   for pairs in held.values())
        lines = (out / "ledger.jsonl").read_text().splitlines(True)
        ledger = [line for line in lines if '"ledger_entry"' in line]
        assert ledger == [json.dumps({"kind": "ledger_entry",
                                      **entry.to_dict()}) + "\n"
                          for entry in entries]

        lines = (out / "events.jsonl").read_text().splitlines(True)
        kinds = [json.loads(line)["kind"] for line in lines]
        assert [line for line, kind in zip(lines, kinds)
                if kind == "span"] == [span_line(s) for s in tracer.spans]
        assert [line for line, kind in zip(lines, kinds)
                if kind == "event"] == [
            json.dumps({"kind": "event", "name": name, "time": ts,
                        "attrs": attrs}) + "\n"
            for name, ts, attrs in tracer.events]
        assert any(name == "checkpoint_restore"
                   for name, _, _ in tracer.events)


# -- streamed artifacts round-trip ---------------------------------------------

def streamed_run(cluster, tmp_path, *, rules=None):
    tracer = Tracer()
    config = SimulatorConfig(profiling_mode=ProfilingMode.ORACLE,
                             tracer=tracer)
    simulator = Simulator(cluster, SiaScheduler(), jobs(), config)
    registry = simulator.metrics
    config.observers.extend([
        SLOObserver(SLOEngine(rules, metrics=registry)),
        AlertStreamObserver(tmp_path / "alerts.jsonl", "sia"),
        EventStreamObserver(tracer, tmp_path / "events.jsonl", registry),
        LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia"),
        PrometheusSnapshotObserver(registry, tmp_path / "metrics.prom"),
    ])
    return simulator.run()


class TestStreamedArtifacts:
    def test_streamed_events_match_end_of_run_dump(self, hetero_cluster,
                                                   tmp_path):
        result = streamed_run(hetero_cluster, tmp_path)
        from repro.obs.export import read_events_jsonl
        spans, metrics = read_events_jsonl(tmp_path / "events.jsonl")
        assert spans == result.spans
        assert metrics == result.final_metrics
        trailer = json.loads(
            (tmp_path / "events.jsonl").read_text().splitlines()[-1])
        assert trailer["kind"] == "stream_end"
        assert trailer["spans"] == len(result.spans)

    def test_streamed_ledger_matches_post_hoc_ledger(self, hetero_cluster,
                                                     tmp_path):
        result = streamed_run(hetero_cluster, tmp_path)
        ledger, events = io.load_ledger(tmp_path / "ledger.jsonl")
        assert ledger.entries == GoodputLedger.from_result(result).entries
        assert events == result.allocation_events()

    def test_streamed_ledger_bytes_match_json_dumps(self, hetero_cluster,
                                                    tmp_path):
        """The streamed ledger, byte for byte, as ``json.dumps`` writes the
        post-hoc ledger's entries and the run's allocation events."""
        result = streamed_run(hetero_cluster, tmp_path)
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines(True)
        entries = GoodputLedger.from_result(result).entries
        rebuilt = []
        for index, record in enumerate(result.rounds):
            rebuilt += [json.dumps({"kind": "ledger_entry", **e.to_dict()})
                        + "\n" for e in entries if e.round_index == index]
            rebuilt += [json.dumps({"kind": "alloc_event",
                                    "event": event.to_dict()}) + "\n"
                        for event in record.events]
        assert entries and lines[1:-1] == rebuilt

    def test_streamed_alerts_load_back(self, hetero_cluster, tmp_path):
        # A rule that trivially fires so the alerts stream is non-empty.
        rules = [SLORule(name="always", metric="solver_fallback_rate",
                         target=1.0, comparison=">=", window=4,
                         error_budget=0.5, min_samples=1, cooldown=1000)]
        result = streamed_run(hetero_cluster, tmp_path, rules=rules)
        alerts = io.load_alerts(tmp_path / "alerts.jsonl")
        assert alerts == [a for _, a in result.alerts_timeline()]
        assert len(alerts) == 1
        lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"kind": "alerts_end",
                                         "num_alerts": 1}

    def test_prometheus_snapshot_parses(self, hetero_cluster, tmp_path):
        streamed_run(hetero_cluster, tmp_path)
        samples = parse_prometheus_text(
            (tmp_path / "metrics.prom").read_text())
        assert samples["rounds_planned"] > 0
        assert any(name.startswith("solve_time_s") for name in samples)


# -- crash durability ----------------------------------------------------------

class TestCrashDurability:
    def test_kill_mid_run_leaves_parseable_prefixes(self, hetero_cluster,
                                                    tmp_path):
        """Killing the engine mid-run must leave every stream as a valid
        JSONL prefix at ``<path>.part`` — no torn line, no final file."""
        tracer = Tracer()
        observers = [
            EventStreamObserver(tracer, tmp_path / "events.jsonl"),
            LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia"),
            HealthEventStreamObserver(tmp_path / "health.jsonl", "sia"),
        ]
        config = SimulatorConfig(
            profiling_mode=ProfilingMode.ORACLE, tracer=tracer,
            observers=observers,
            checkpoint=CheckpointConfig(directory=tmp_path / "ckpt",
                                        every_rounds=3,
                                        crash_hook=CrashAt(6)))
        with pytest.raises(SimulatedCrash):
            Simulator(hetero_cluster, SiaScheduler(), jobs(4, scale=2.0),
                      config).run()
        for name in ("events.jsonl", "ledger.jsonl", "health.jsonl"):
            final = tmp_path / name
            part = final.with_name(final.name + ".part")
            assert part.exists() and not final.exists()
            lines = part.read_text().splitlines()
            assert lines  # rounds were flushed before the crash
            for line in lines:
                json.loads(line)  # every line parses
            # The crash preempted the completeness trailer.
            assert json.loads(lines[-1])["kind"] not in (
                "stream_end", "ledger_end", "health_events_end")
        io.load_health_events(tmp_path / "health.jsonl.part")

    def test_resumed_run_restreams_full_history(self, hetero_cluster,
                                                tmp_path):
        """Fresh observers attached to a resumed run catch up from the
        restored rounds: the final streamed ledger covers the whole run,
        not just the post-resume suffix."""
        def build(observers, crash_hook=None):
            config = SimulatorConfig(
                profiling_mode=ProfilingMode.ORACLE, observers=observers,
                checkpoint=CheckpointConfig(directory=tmp_path / "ckpt",
                                            every_rounds=3,
                                            crash_hook=crash_hook))
            return Simulator(hetero_cluster, SiaScheduler(),
                             jobs(4, scale=2.0), config)

        with pytest.raises(SimulatedCrash):
            build([LedgerStreamObserver(tmp_path / "ledger.jsonl", "sia")],
                  crash_hook=CrashAt(6)).run()
        state, _, _ = latest_valid_checkpoint(tmp_path / "ckpt")
        resumed = build([LedgerStreamObserver(tmp_path / "ledger.jsonl",
                                              "sia")]).run(resume_from=state)
        ledger, events = io.load_ledger(tmp_path / "ledger.jsonl")
        assert ledger.entries == \
            GoodputLedger.from_result(resumed).entries
        assert events == resumed.allocation_events()

    def test_observers_built_before_resume_watch_the_run(self, hetero_cluster,
                                                         tmp_path):
        """A resume refills the simulator's own registry, so observers
        built on ``simulator.metrics`` before ``run`` export the resumed
        run's metrics, and theirs land in its final metrics."""
        def build(checkpoint=None):
            config = SimulatorConfig(profiling_mode=ProfilingMode.ORACLE,
                                     checkpoint=checkpoint)
            return Simulator(hetero_cluster, SiaScheduler(),
                             jobs(4, scale=2.0), config)

        build(CheckpointConfig(directory=tmp_path / "ckpt",
                               every_rounds=3)).run()
        simulator = build()
        registry = simulator.metrics
        simulator.config.observers.extend([
            SLOObserver(SLOEngine(metrics=registry)),
            PrometheusSnapshotObserver(registry, tmp_path / "m.prom")])
        resumed = simulator.run(resume_from=tmp_path / "ckpt")
        assert simulator.metrics is registry
        assert any(key.startswith("slo.") for key in resumed.final_metrics)
        samples = parse_prometheus_text((tmp_path / "m.prom").read_text())
        assert samples["rounds_planned"] == len(resumed.rounds) > 0


# -- determinism contract ------------------------------------------------------

class TestDeterminism:
    def test_fully_observed_run_is_bit_identical(self, hetero_cluster,
                                                 tmp_path):
        """The tentpole's hard constraint: the full streaming + SLO stack
        must not change a single compared field of the simulation."""
        plain = simulate(hetero_cluster, SiaScheduler(), jobs(),
                         profiling_mode=ProfilingMode.ORACLE)
        observed = streamed_run(hetero_cluster, tmp_path)
        assert diff_results(plain, observed) == []


# -- Prometheus exposition -----------------------------------------------------

class TestPrometheus:
    def test_registry_renders_all_metric_types(self):
        registry = MetricsRegistry()
        registry.counter("rounds_planned").inc(3)
        registry.gauge("queue.depth").set(1.5)
        for v in (0.1, 0.2, 0.4):
            registry.histogram("solve_time_s").observe(v)
        text = prometheus_text(registry)
        assert "# TYPE rounds_planned counter" in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE solve_time_s summary" in text
        samples = parse_prometheus_text(text)
        assert samples["rounds_planned"] == 3
        assert samples["queue_depth"] == 1.5
        assert samples['solve_time_s{quantile="0.95"}'] == \
            pytest.approx(0.38)
        assert samples["solve_time_s_count"] == 3
        assert samples["solve_time_s_sum"] == pytest.approx(0.7)

    def test_flat_snapshot_renders_as_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("util.t4").set(0.5)
        registry.gauge("2weird name").set(1.0)
        text = prometheus_text(registry)
        assert "# TYPE util_t4 gauge" in text
        samples = parse_prometheus_text(text)
        assert samples["util_t4"] == 0.5
        assert samples["_2weird_name"] == 1.0  # sanitized legal name

    @pytest.mark.parametrize("bad", [
        "metric 1 2 3",
        "1bad_name 2",
        "# NOPE foo bar",
        "# TYPE foo flavor",
        "no_value",
    ])
    def test_parser_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}
