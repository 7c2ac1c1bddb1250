"""Tests for the SLO engine: rule parsing, burn-rate alerting semantics,
causal context, and end-to-end firing on fault-heavy simulations."""

import json
from dataclasses import replace

import pytest

from repro import io
from repro.core.health import (DRAINED, QUARANTINED, HealthConfig,
                               HealthEvent, HealthTracker)
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.ledger import queue_wait_by_job
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (Alert, SLOEngine, SLORule, default_rules,
                           evaluate_result, parse_rules)
from repro.obs.stream import RoundObserver, SLOObserver
from repro.schedulers import SiaScheduler
from repro.sim import (GrayFailureModel, PlacementFailureModel, Simulator,
                       SimulatorConfig, simulate)
from repro.sim.chaos import CrashAt, SimulatedCrash
from repro.sim.checkpoint import CheckpointConfig
from repro.sim.telemetry import RoundRecord, SimulationResult
from tests.golden import regen


def jobs(n=3, scale=0.4):
    return [make_job(f"j{i}", "resnet18", 0.0, work_scale=scale)
            for i in range(n)]


def record(index, *, solve_time=0.01, **kwargs):
    return RoundRecord(time=60.0 * index, solve_time=solve_time, **kwargs)


def health(kind, index, node_id):
    return HealthEvent(kind=kind, time=60.0 * index, node_id=node_id,
                       detail="")


def quarantine_rounds(counts):
    """Records whose ``quarantined_nodes`` series reads ``counts``: each
    round quarantines or reinstates the nodes that close the gap."""
    records, held = [], 0
    for index, count in enumerate(counts):
        events = [health("quarantine", index, node)
                  for node in range(held, count)]
        events += [health("reinstate", index, node)
                   for node in range(count, held)]
        records.append(record(index, health_events=events))
        held = count
    return records


def feed(engine, records, dt=60.0):
    """Run every record through the engine; returns all fired alerts."""
    fired = []
    for index, rnd in enumerate(records):
        fired.extend(engine.observe_round(rnd, index, dt))
    return fired


# -- rules and parsing ---------------------------------------------------------

class TestSLORule:
    def test_defaults_are_valid(self):
        rule = SLORule(name="r", metric="round_latency_p95", target=1.0)
        assert rule.comparison == "<=" and rule.window == 20

    @pytest.mark.parametrize("bad", [
        dict(comparison="=="),
        dict(window=0),
        dict(error_budget=0.0),
        dict(error_budget=1.5),
        dict(burn_rate=0.0),
        dict(min_samples=0),
        dict(severity="fatal"),
        # Only the built-in series exist; a ruleset still naming an
        # aggregation fails on the unknown key.
        dict(metric="queue_depth"),
        dict(agg="last"),
    ])
    def test_validation_rejects(self, bad):
        base = dict(name="r", metric="round_latency_p95", target=1.0)
        base.update(bad)
        with pytest.raises(ValueError):
            SLORule.from_dict(base)

    def test_dict_round_trip(self):
        rule = SLORule(name="r", metric="queue_wait_p99", target=3600.0,
                       severity="page", window=7)
        assert SLORule.from_dict(rule.to_dict()) == rule

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SLO rule keys"):
            SLORule.from_dict({"name": "r", "metric": "x", "target": 1.0,
                               "treshold": 2})


class TestParseRules:
    def test_default_sources(self):
        assert parse_rules(None) == default_rules()
        assert parse_rules("default") == default_rules()

    def test_list_and_wrapped_dict(self):
        spec = [{"name": "r", "metric": "round_latency_p95", "target": 2.0}]
        assert parse_rules(spec) == parse_rules({"rules": spec})
        assert parse_rules(spec)[0].target == 2.0

    def test_json_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "lat", "metric": "round_latency_p95", "target": 0.5}]}))
        rules = parse_rules(path)
        assert [r.name for r in rules] == ["lat"]

    def test_duplicate_names_rejected(self):
        spec = [{"name": "r", "metric": "round_latency_p95", "target": 1.0},
                {"name": "r", "metric": "queue_wait_p99", "target": 1.0}]
        with pytest.raises(ValueError, match="duplicate"):
            parse_rules(spec)

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="list of rules"):
            parse_rules({"not_rules": []})

    def test_default_ruleset_names_are_stable(self):
        # CI and the docs reference these names; renames are breaking.
        assert [r.name for r in default_rules()] == [
            "round-latency", "solver-fallbacks", "queue-wait",
            "estimation-error", "quarantined-capacity"]


# -- burn-rate semantics -------------------------------------------------------

def quarantine_rule(**kwargs):
    base = dict(name="quarantine", metric="quarantined_nodes", target=5.0,
                comparison="<=", window=4, error_budget=0.5, burn_rate=1.0,
                min_samples=2, cooldown=3)
    base.update(kwargs)
    return SLORule(**base)


class TestBurnRate:
    def test_fires_when_budget_burns(self):
        engine = SLOEngine([quarantine_rule()])
        # 2 of the last 4 rounds violating = 50% = the whole budget.
        fired = feed(engine, quarantine_rounds([1, 1, 9, 9]))
        assert len(fired) == 1
        alert = fired[0]
        assert alert.rule == "quarantine" and alert.round_index == 3
        assert alert.value == 9.0 and alert.burn_rate >= 1.0

    def test_min_samples_gates_early_evidence(self):
        engine = SLOEngine([quarantine_rule(min_samples=3)])
        # Two violating rounds burn 100% of budget but lack evidence.
        fired = feed(engine, quarantine_rounds([9, 9]))
        assert fired == []

    def test_cooldown_suppresses_then_rearms(self):
        engine = SLOEngine([quarantine_rule(min_samples=1, cooldown=3)])
        fired = feed(engine, quarantine_rounds([9] * 7))
        # Fires at round 0, quiet for rounds 1-2, re-fires at 3 and 6.
        assert [a.round_index for a in fired] == [0, 3, 6]

    def test_missing_metric_is_not_a_violation(self):
        # No round has both ledger sides: the error median is NaN.
        rule = SLORule(name="err", metric="estimation_error_median",
                       target=0.0, min_samples=1)
        engine = SLOEngine([rule])
        fired = feed(engine, [record(i) for i in range(5)])
        assert fired == []

    def test_ge_comparison_fires_below_target(self):
        rule = quarantine_rule(name="floor", target=0.5, comparison=">=",
                               min_samples=1)
        engine = SLOEngine([rule])
        fired = feed(engine, quarantine_rounds([0]))
        assert len(fired) == 1 and fired[0].comparison == ">="

    def test_windowed_agg_uses_rolling_statistic(self):
        rule = SLORule(name="p95", metric="round_latency_p95", target=5.0,
                       window=4, error_budget=0.5, min_samples=1,
                       cooldown=1)
        engine = SLOEngine([rule])
        # One slow round: the last round is fast, but the rolling p95
        # over the window stays elevated.
        records = [record(i, solve_time=t)
                   for i, t in enumerate([1.0, 20.0, 1.0, 1.0])]
        fired = feed(engine, records)
        assert [a.round_index for a in fired] == [1, 2, 3]
        assert fired[-1].value > 5.0

    def test_quarantined_nodes_builtin_series(self):
        rule = SLORule(name="q", metric="quarantined_nodes", target=0.0,
                       window=4, error_budget=0.5, min_samples=2,
                       cooldown=10, severity="page")
        engine = SLOEngine([rule])
        fired = feed(engine, quarantine_rounds([1, 1]))
        assert len(fired) == 1 and fired[0].severity == "page"

    def test_quarantined_series_moves_only_on_quarantine_and_reinstate(
            self):
        """The fold's rule on hand-written events: a ``quarantine`` adds
        its node, a ``reinstate`` removes it (a no-op for a node that was
        drained, as after an emergency reinstate), and no other kind moves
        the series, whatever node it names."""
        rule = quarantine_rule(target=-1.0, min_samples=1, cooldown=1)
        engine = SLOEngine([rule])
        rounds = [[("quarantine", 1), ("quarantine", 2)],
                  [("evict", 1), ("drain", 2), ("probation", 3)],
                  [("drain", 4), ("reinstate", 4)],
                  [("reinstate", 1), ("recover", 2)],
                  [("quarantine", 1)]]
        records = [record(i, health_events=[health(kind, i, node)
                                            for kind, node in events])
                   for i, events in enumerate(rounds)]
        assert [a.value for a in feed(engine, records)] == \
            [2.0, 2.0, 2.0, 1.0, 2.0]

    def test_solver_fallback_rate_series(self):
        rule = SLORule(name="fb", metric="solver_fallback_rate", target=0.25,
                       window=4, error_budget=0.5, min_samples=2)
        engine = SLOEngine([rule])
        fired = feed(engine, [record(i, backend="carry") for i in range(2)])
        assert fired and fired[0].value == 1.0
        assert fired[0].context.get("backends")

    def test_each_fallback_rule_has_its_own_window(self):
        """A window-4 rule reads the carried share of its own last 4
        rounds, whatever other fallback rules sit beside it: after 4
        carried rounds and 8 clean ones it reads 0.0, not the 4/12 of a
        window-20 neighbour."""
        w4 = SLORule(name="w4", metric="solver_fallback_rate", target=1.0,
                     comparison=">=", window=4, error_budget=1.0,
                     min_samples=1, cooldown=1)
        records = [record(i, backend="carry" if i < 4 else "milp")
                   for i in range(12)]

        def w4_alerts(rules):
            return [a for a in feed(SLOEngine(rules), records)
                    if a.rule == "w4"]
        alone = w4_alerts([w4])
        assert [a.round_index for a in alone] == [7, 8, 9, 10, 11]
        assert alone[-1].value == 0.0
        assert w4_alerts([w4, replace(w4, name="w20", window=20)]) == alone

    def test_burn_rate_gauges_and_counters_land_in_registry(self):
        registry = MetricsRegistry()
        engine = SLOEngine([quarantine_rule(min_samples=1)],
                           metrics=registry)
        feed(engine, quarantine_rounds([9]))
        snap = registry.snapshot()
        assert snap["slo.burn_rate.quarantine"] == pytest.approx(2.0)
        assert snap["slo.alerts"] == 1
        assert snap["slo.alert.quarantine"] == 1


class TestAlert:
    def test_dict_round_trip_preserves_context(self):
        alert = Alert(rule="r", metric="m", round_index=3, time=180.0,
                      value=9.0, target=5.0, comparison="<=", burn_rate=2.0,
                      window=4, severity="page",
                      context={"nodes": [1, 2], "jobs": ["j1"]})
        again = Alert.from_dict(alert.to_dict())
        assert again == alert
        assert again.context == alert.context

    def test_from_dict_ignores_stream_framing_keys(self):
        data = Alert(rule="r", metric="m", round_index=0, time=0.0,
                     value=1.0, target=0.0, comparison="<=", burn_rate=1.0,
                     window=1).to_dict()
        data["kind"] = "alert"  # JSONL framing, not an Alert field
        assert Alert.from_dict(data).rule == "r"

    def test_describe_mentions_rule_and_causes(self):
        alert = Alert(rule="queue-wait", metric="queue_wait_p99",
                      round_index=1, time=60.0, value=9000.0, target=3600.0,
                      comparison="<=", burn_rate=1.5, window=20,
                      context={"jobs": ["j7"], "nodes": [3],
                               "faults": {"node_crash": 2}})
        text = alert.describe()
        assert "queue-wait" in text and "j7" in text
        assert "nodes 3" in text and "node_crash=2" in text

    def test_alert_counts_by_rule(self):
        mk = lambda rule: Alert(rule=rule, metric="m", round_index=0,  # noqa: E731
                                time=0.0, value=1.0, target=0.0,
                                comparison="<=", burn_rate=1.0, window=1)
        result = SimulationResult(scheduler_name="s", cluster_description="c")
        for alerts in ([mk("a"), mk("b")], [], [mk("a")]):
            result.rounds.append(RoundRecord(time=0.0, solve_time=0.0,
                                             alerts=alerts))
        assert result.alert_counts() == {"a": 2, "b": 1}


# -- end-to-end on simulations -------------------------------------------------

def gray_slo_sim(cluster, *, rules=None, seed=4):
    engine = SLOEngine(rules if rules is not None else default_rules())
    config = SimulatorConfig(
        profiling_mode=ProfilingMode.ORACLE, seed=seed, max_hours=100,
        fault_models=[GrayFailureModel(rate=20.0, slowdown=0.3,
                                       duration=14400.0, seed=17),
                      PlacementFailureModel(failure_prob=0.15, seed=18)],
        health=HealthConfig(min_samples=3),
        observers=[SLOObserver(engine)])
    result = Simulator(cluster, SiaScheduler(), jobs(4), config).run()
    return result, engine


class TestEndToEnd:
    def test_fault_heavy_run_fires_alerts_with_node_causality(
            self, hetero_cluster):
        """The CI observability scenario: a gray-failure run under the
        default ruleset must page on quarantined capacity, and at least one
        alert must name the offending node(s)."""
        result, engine = gray_slo_sim(hetero_cluster)
        counts = result.alert_counts()
        assert counts.get("quarantined-capacity", 0) > 0
        assert any(a.context.get("nodes") for a in engine.alerts)
        # Alerts landed on the rounds that fired them.
        timeline = result.alerts_timeline()
        assert [a for _, a in timeline] == engine.alerts

    def test_live_queue_waits_match_post_hoc(self):
        """Jobs queue under FIFO on golden's contended recipe: the live
        tracker's per-job waits equal the post-hoc attribution."""
        simulator = regen.build("contended", "fifo")
        engine = SLOEngine()
        simulator.config.observers.append(SLOObserver(engine))
        result = simulator.run()
        waited = {job_id: wait for job_id, wait
                  in queue_wait_by_job(result).items() if wait > 0}
        assert waited
        assert engine._queue.waits == waited

    def test_clean_run_fires_nothing(self, hetero_cluster):
        engine = SLOEngine(default_rules())
        simulate(hetero_cluster, SiaScheduler(), jobs(2),
                 profiling_mode=ProfilingMode.ORACLE,
                 observers=[SLOObserver(engine)])
        assert engine.alerts == []

    def test_post_hoc_replay_reproduces_live_alerts(self, hetero_cluster):
        """evaluate_result over the recorded rounds must produce exactly
        the alerts the live observer attached (recorded solve_time drives
        the wall-clock rules either way)."""
        result, engine = gray_slo_sim(hetero_cluster)
        replayed = evaluate_result(result, default_rules())
        assert replayed == engine.alerts

    def test_observed_run_matches_unobserved_rounds(self, hetero_cluster):
        """Determinism: attaching the SLO observer must not perturb any
        simulation-state field (the chaos oracle's contract)."""
        from repro.sim.chaos import diff_results
        observed, _ = gray_slo_sim(hetero_cluster)
        config = SimulatorConfig(
            profiling_mode=ProfilingMode.ORACLE, seed=4, max_hours=100,
            fault_models=[GrayFailureModel(rate=20.0, slowdown=0.3,
                                           duration=14400.0, seed=17),
                          PlacementFailureModel(failure_prob=0.15, seed=18)],
            health=HealthConfig(min_samples=3))
        plain = Simulator(hetero_cluster, SiaScheduler(), jobs(4),
                          config).run()
        assert diff_results(plain, observed) == []


# -- the quarantined-nodes fold ------------------------------------------------

def stressed_config(**kwargs):
    """Gray failures and placement failures on slow jobs: 480 rounds with
    21 quarantines, 21 reinstates and 5 drains."""
    return SimulatorConfig(
        profiling_mode=ProfilingMode.ORACLE, seed=4, max_hours=8,
        fault_models=[GrayFailureModel(rate=20.0, slowdown=0.3,
                                       duration=14400.0, seed=17),
                      PlacementFailureModel(failure_prob=0.15, seed=18)],
        health=HealthConfig(min_samples=3), **kwargs)


def quarantined_ids(tracker):
    return {node_id for node_id, health in tracker._nodes.items()
            if health.state == QUARANTINED}


class TestQuarantinedFold:
    """The ``quarantined_nodes`` series folds the rounds' health events;
    the tracker's own state is the oracle."""

    def test_fold_equals_tracker_after_every_round(self, hetero_cluster):
        engine = SLOEngine(default_rules())
        config = stressed_config(observers=[SLOObserver(engine)])
        simulator = Simulator(hetero_cluster, SiaScheduler(), jobs(4, 1.0),
                              config)
        checked = []

        class Oracle(RoundObserver):
            def observe(self, record, round_index, dt):
                tracker = simulator.state.health
                assert len(engine._quarantined) == \
                    tracker.state_counts()["quarantined"], round_index
                assert engine._quarantined == quarantined_ids(tracker)
                checked.append(round_index)

        config.observers.append(Oracle())
        result = simulator.run()
        assert checked == list(range(len(result.rounds)))
        counts = result.health_counts()
        assert counts["health.quarantine"] > 0
        assert counts["health.reinstate"] > 0
        assert counts["health.drain"] > 0

    def test_fold_follows_emergency_reinstates(self, tiny_cluster):
        """Every node sick, round after round: each time all are excluded,
        ``healthy_view`` reinstates one, out of quarantine while one is
        quarantined and out of the drained pool once all are drained."""
        tracker = HealthTracker(HealthConfig())
        engine = SLOEngine([SLORule(name="q", metric="quarantined_nodes",
                                    target=0.0)])
        rescued_from = []
        for index in range(16):
            now = 60.0 * index
            for node in tiny_cluster.nodes:
                for _ in range(3):
                    tracker.record_goodput([node.node_id], 1.0, 0.1, now)
            tracker.tick(now)
            before = {node.node_id: tracker.node(node.node_id).state
                      for node in tiny_cluster.nodes}
            tracker.healthy_view(tiny_cluster, now)
            events = tracker.drain_events()
            rescued_from += [before[e.node_id] for e in events
                             if e.kind == "reinstate"
                             and "emergency" in e.detail]
            engine.observe_round(record(index, health_events=events),
                                 index, 60.0)
            assert len(engine._quarantined) == \
                tracker.state_counts()["quarantined"], index
            assert engine._quarantined == quarantined_ids(tracker)
        assert QUARANTINED in rescued_from and DRAINED in rescued_from


class TestAlertsAgree:
    def test_live_post_hoc_and_resumed_alerts_are_equal(self,
                                                        hetero_cluster,
                                                        tmp_path):
        """One ruleset, three evaluations of one run: the live observer,
        ``evaluate_result`` over the saved result, and an observer attached
        to a run killed at a round boundary and resumed, which catches up
        on the restored rounds first.  ``Alert.context`` is not compared
        by ``==``, so the dict forms are."""
        def build(observers, checkpoint=None):
            return Simulator(hetero_cluster, SiaScheduler(), jobs(4, 1.0),
                             stressed_config(observers=observers,
                                             checkpoint=checkpoint))

        live = SLOEngine(default_rules())
        result = build([SLOObserver(live)]).run()
        io.save_result(result, tmp_path / "result.json")
        post_hoc = evaluate_result(io.load_result(tmp_path / "result.json"),
                                   default_rules())

        with pytest.raises(SimulatedCrash):
            build([], CheckpointConfig(directory=tmp_path / "ckpt",
                                       every_rounds=20,
                                       crash_hook=CrashAt(60))).run()
        resumed = SLOEngine(default_rules())
        build([SLOObserver(resumed)]).run(resume_from=tmp_path / "ckpt")

        expected = [a.to_dict() for a in live.alerts]
        assert any(a["rule"] == "quarantined-capacity" and a["round_index"]
                   < 60 for a in expected)
        assert [a.to_dict() for a in post_hoc] == expected
        assert [a.to_dict() for a in resumed.alerts] == expected
