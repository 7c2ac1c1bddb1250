"""The engine round as named phases, timed one way.

Each round's direct child spans are the engine's phases in
:data:`~repro.obs.tracer.ROUND_PHASES` order; the health tick and the
invariant audit run directly under ``round``; the metrics registry is
snapshotted once, after the last round; and ``solve_time`` comes from the
engine's own clock, so untraced runs record it too."""

from __future__ import annotations

import functools

from repro.core.fork import make_fault_models
from repro.core.health import HealthConfig, HealthTracker
from repro.core.types import ProfilingMode
from repro.jobs.job import make_job
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import ROUND_PHASES, Tracer
from repro.schedulers import SiaScheduler
from repro.sim import Simulator, SimulatorConfig
from repro.sim.invariants import InvariantChecker

#: methods an outside harness times on their classes; each must run with
#: ``round`` as the innermost open span, never inside a phase span.
ROUND_LEVEL_CALLS = ((HealthTracker, "tick"),
                     (InvariantChecker, "check_round"))


def jobs(n=4, scale=1.0):
    return [make_job(f"j{i}", "resnet18", 0.0, work_scale=scale)
            for i in range(n)]


def faulty_config(**kwargs) -> SimulatorConfig:
    return SimulatorConfig(
        profiling_mode=ProfilingMode.ORACLE, seed=3, max_hours=100,
        node_failure_rate=0.5, health=HealthConfig(), invariants="strict",
        fault_models=make_fault_models({
            "gray_rate": 20.0, "gray_slowdown": 0.3,
            "placement_fail_prob": 0.2,
            "job_crash_rate": 1.0, "restore_failure_prob": 0.2}),
        **kwargs)


class TestRoundPhases:
    def test_round_children_are_phases_in_order(self, hetero_cluster,
                                                monkeypatch):
        tracer = Tracer()
        # Innermost open span id at each harness-timed call (None when no
        # span is open, as for the final metrics snapshot).
        innermost: dict[str, list[int | None]] = {}
        for cls, name in ROUND_LEVEL_CALLS + ((MetricsRegistry, "snapshot"),):
            seen = innermost.setdefault(name, [])

            def wrapper(*args, _method=getattr(cls, name), _seen=seen,
                        **kw):
                _seen.append(tracer._stack[-1] if tracer._stack else None)
                return _method(*args, **kw)
            monkeypatch.setattr(cls, name,
                                functools.wraps(getattr(cls, name))(wrapper))

        result = Simulator(hetero_cluster, SiaScheduler(), jobs(),
                           faulty_config(tracer=tracer)).run()
        assert result.total_fault_events > 0
        # The health phase drained a job off a quarantined node.
        assert result.health_counts().get("health.evict", 0) > 0

        names = {s.span_id: s.name for s in result.spans}
        rounds = [s for s in result.spans if s.name == "round"]
        assert len(rounds) == len(result.rounds)
        children: dict[int, list] = {s.span_id: [] for s in rounds}
        for span in result.spans:
            if span.parent_id in children:
                children[span.parent_id].append(span)
        for round_span in rounds:
            kids = sorted(children[round_span.span_id], key=lambda s: s.start)
            order = [s.name for s in kids]
            # Fault models and the health layer are on: every phase runs.
            assert order == list(ROUND_PHASES), order

        for _, name in ROUND_LEVEL_CALLS:
            in_round = [span_id for span_id in innermost[name]
                        if span_id is not None]
            assert len(in_round) == len(result.rounds), name
            assert {names[span_id] for span_id in in_round} == {"round"}, \
                name
        # One snapshot per run, taken after the last round closed.
        assert innermost["snapshot"] == [None]

    def test_carry_forward_nests_in_plan(self, hetero_cluster):
        class Broken(SiaScheduler):
            def decide(self, views, cluster, previous, now):
                if now >= 120.0:
                    raise RuntimeError("boom")
                return super().decide(views, cluster, previous, now)

        tracer = Tracer()
        result = Simulator(hetero_cluster, Broken(), jobs(n=2),
                           SimulatorConfig(seed=1, resilient=True,
                                           max_hours=1.0,
                                           tracer=tracer)).run()
        by_id = {s.span_id: s for s in result.spans}
        carried = [s for s in result.spans if s.name == "carry_forward"]
        assert carried
        assert {by_id[s.parent_id].name for s in carried} == {"plan"}
        assert all(r.solve_time > 0 for r in result.rounds)


class TestSolveTime:
    def test_untraced_run_records_solve_time(self, hetero_cluster):
        """The plan phase is timed with its own clock, not the span's: the
        default no-op tracer measures nothing, yet every planned round
        still records its wall time."""
        result = Simulator(hetero_cluster, SiaScheduler(), jobs(),
                           faulty_config()).run()
        assert not result.spans
        planned = [r for r in result.rounds if r.backend != "carry"]
        assert planned
        assert all(r.solve_time > 0 for r in planned)
