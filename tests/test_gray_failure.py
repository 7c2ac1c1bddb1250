"""Tests for gray-failure resilience: silent fault models, node health
scoring and quarantine (repro.core.health), the estimator's telemetry
defense, fallible placements, and health-event persistence."""

import json
import pickle
import random
import statistics

import pytest

from repro import io
from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.core.health import (BACKOFF_BASE_S, BACKOFF_CAP_S, BACKOFF_JITTER,
                               DRAIN_AFTER, DRAINED, HEALTHY,
                               PLACEMENT_FAILURE_THRESHOLD, PROBATION,
                               PROBATION_DISCOUNT, QUARANTINE_BASE_S,
                               QUARANTINE_CAP_S, QUARANTINED, HealthConfig,
                               HealthEvent, HealthTracker,
                               deterministic_jitter, placement_backoff)
from repro.core.types import Allocation, Configuration, ProfilingMode
from repro.jobs.job import make_job
from repro.obs.stream import HealthEventStreamObserver
from repro.perf import profiles
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import Observation
from repro.schedulers import FIFOScheduler, SiaScheduler
from repro.sim import (GrayFailureModel, PlacementFailureModel, Simulator,
                       SimulatorConfig, StragglerModel,
                       TelemetryCorruptionModel, simulate)
from repro.sim.chaos import run_chaos
from repro.sim.faults import TELEMETRY_SCALE_FACTOR, FaultContext


def jobs(n=3, scale=0.4):
    return [make_job(f"j{i}", "resnet18", 0.0, work_scale=scale)
            for i in range(n)]


def obs(iter_time=0.1, local_bsz=32, gpu_type="t4") -> Observation:
    return Observation(gpu_type=gpu_type, num_nodes=1, num_gpus=1,
                       local_bsz=local_bsz, accum_steps=1,
                       iter_time=iter_time)


# -- fault models --------------------------------------------------------------

class TestGrayFailureModel:
    def test_slows_silently_not_via_node_speed(self):
        ctx = FaultContext(now=0.0, dt=60.0, cluster=presets.heterogeneous())
        model = GrayFailureModel(rate=1e6, slowdown=0.35, seed=1)
        model.sample(ctx)
        assert ctx.gray_speed  # every node drawn gray at this rate
        assert all(f == 0.35 for f in ctx.gray_speed.values())
        assert not ctx.node_speed  # stragglers' visible channel untouched
        assert all(e.kind == "gray_failure" for e in ctx.events)
        assert "masked" in ctx.events[0].detail

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GrayFailureModel(slowdown=0.0)
        with pytest.raises(ValueError):
            GrayFailureModel(rate=-1.0)
        with pytest.raises(ValueError):
            GrayFailureModel(duration=0.0)

    def test_masking_slows_jobs_without_estimator_rejections(
            self, hetero_cluster):
        """The tentpole's masking contract: jobs run slower under gray
        failure, but the telemetry the estimator sees stays nominal — no
        rejected observations, no straggler-style visible slowdown."""
        clean = simulate(hetero_cluster, SiaScheduler(), jobs(),
                         max_hours=100)
        gray = simulate(hetero_cluster, SiaScheduler(), jobs(),
                        max_hours=100,
                        fault_models=[GrayFailureModel(rate=60.0,
                                                       slowdown=0.3,
                                                       seed=9)])
        assert gray.fault_counts().get("gray_failure", 0) > 0
        assert sum(gray.jcts_hours()) > sum(clean.jcts_hours())
        assert gray.final_metrics.get("telemetry.rejected_observations",
                                      0) == 0
        assert all(j.completed for j in gray.jobs)

    def test_gray_speed_merges_worst_factor(self):
        ctx = FaultContext(now=0.0, dt=60.0, cluster=presets.heterogeneous())
        ctx.gray_slow_node(0, 0.5)
        ctx.gray_slow_node(0, 0.8)
        assert ctx.gray_speed[0] == 0.5


class TestPlacementFailureModel:
    def attempts(self):
        return [("j0", Allocation.build("t4", {0: 2, 1: 2})),
                ("j1", Allocation.build("t4", {2: 4}))]

    def test_deterministic_and_attributed(self):
        a = PlacementFailureModel(failure_prob=0.7, seed=3)
        b = PlacementFailureModel(failure_prob=0.7, seed=3)
        fa = a.sample_placement_failures(self.attempts(), now=0.0)
        fb = b.sample_placement_failures(self.attempts(), now=0.0)
        assert fa == fb and fa
        nodes = {"j0": {0, 1}, "j1": {2}}
        for failure in fa:
            assert failure.node_id in nodes[failure.job_id]

    def test_zero_prob_never_fails(self):
        model = PlacementFailureModel(failure_prob=0.0, seed=3)
        assert model.sample_placement_failures(self.attempts(), 0.0) == []

    def test_rejects_certain_failure(self):
        with pytest.raises(ValueError):
            PlacementFailureModel(failure_prob=1.0)

    def test_flaps_cost_time_but_jobs_finish(self, hetero_cluster):
        clean = simulate(hetero_cluster, SiaScheduler(), jobs(),
                         max_hours=100)
        flappy = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          max_hours=100,
                          fault_models=[PlacementFailureModel(
                              failure_prob=0.5, seed=7)])
        assert flappy.fault_counts().get("placement_failure", 0) > 0
        assert flappy.final_metrics.get("placement.retries", 0) > 0
        assert all(j.completed for j in flappy.jobs)
        assert sum(flappy.jcts_hours()) >= sum(clean.jcts_hours())


class TestTelemetryCorruptionModel:
    def test_all_modes_fire(self):
        model = TelemetryCorruptionModel(rate=1.0, seed=5)
        details = []
        lengths = set()
        for i in range(200):
            delivered, events = model.corrupt_observation(
                "j0", obs(iter_time=0.1 + i * 1e-6), now=float(i))
            lengths.add(len(delivered))
            details.extend(e.detail for e in events)
        text = " ".join(details)
        assert "dropped" in text
        assert "duplicated" in text
        assert "scaled" in text
        assert "stale" in text
        assert "nan" in text
        assert f"x{TELEMETRY_SCALE_FACTOR:g}" in text
        assert f"x{1 / TELEMETRY_SCALE_FACTOR:g}" in text
        assert lengths == {0, 1, 2}

    def test_stale_replays_previous_report(self):
        model = TelemetryCorruptionModel(rate=1.0, seed=0)
        first = obs(iter_time=0.1)
        seen = {}
        for i in range(100):
            current = obs(iter_time=0.1 + (i + 1) * 0.001)
            delivered, events = model.corrupt_observation(
                "j0", current if i else first, now=float(i))
            for e in events:
                if "stale" in e.detail:
                    seen[i] = delivered
        assert seen  # the mode fired at least once
        for delivered in seen.values():
            assert len(delivered) == 1  # a replay, not the fresh report

    def test_passthrough_below_rate(self):
        model = TelemetryCorruptionModel(rate=0.0, seed=1)
        report = obs()
        assert model.corrupt_observation("j0", report, 0.0) == ([report], [])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TelemetryCorruptionModel(rate=1.5)

    def test_corruption_triggers_estimator_rejections(self, hetero_cluster):
        # Rigid jobs keep a stable allocation, so the estimator sees the
        # same (type, batch-plan) key every round and its MAD window
        # matures — the deterministic way to exercise the reject path
        # end to end (adaptive jobs re-plan too often in a short run).
        from repro.schedulers import FIFOScheduler
        from repro.workloads.tuning import tuned_jobs
        rigid = tuned_jobs(jobs(scale=30.0), hetero_cluster, seed=0)
        result = simulate(hetero_cluster, FIFOScheduler(), rigid,
                          max_hours=100,
                          fault_models=[TelemetryCorruptionModel(
                              rate=0.5, seed=11)])
        assert result.fault_counts().get("telemetry", 0) > 0
        assert result.final_metrics.get("telemetry.rejected_observations",
                                        0) > 0
        assert all(j.completed for j in result.jobs)


# -- estimator defense ---------------------------------------------------------

class TestEstimatorDefense:
    def make(self):
        profile = profiles.model_profile("resnet18")
        constraints = JobConstraints(min_bsz=profile.min_bsz,
                                     max_bsz=profile.max_bsz)
        return JobPerfEstimator("resnet18", constraints, ("t4",))

    def seed_window(self, est, n=6, iter_time=0.1):
        for _ in range(n):
            assert est.add_observation(obs(iter_time=iter_time))

    def test_nan_rejected(self):
        est = self.make()
        assert est.add_observation(obs(iter_time=float("nan"))) is False
        assert est.rejected_observations == 1

    def test_outlier_scale_rejected_both_directions(self):
        est = self.make()
        self.seed_window(est)
        assert est.add_observation(obs(iter_time=0.8)) is False   # x8
        assert est.add_observation(obs(iter_time=0.0125)) is False  # /8
        assert est.rejected_observations == 2

    def test_straggler_magnitude_accepted(self):
        """Regression (satellite 5): a 2x execution slowdown — what a
        straggling node actually produces — must pass the defense; only
        implausible corruption (beyond the 3x ratio cap) is refused."""
        est = self.make()
        self.seed_window(est)
        assert est.add_observation(obs(iter_time=0.2)) is True
        assert est.rejected_observations == 0

    def test_reject_leaves_fit_and_epochs_untouched(self):
        """A rejected report leaves the running fit clean and the stored
        fit in place, so the plans keyed on it still answer."""
        est = self.make()
        self.seed_window(est)
        config = Configuration(1, 1, "t4")
        memo: dict = {}
        est.best_plan(config, memo)
        fit_before = est._types["t4"].fit
        count_before = est._types["t4"].running.reports
        assert est.add_observation(obs(iter_time=5.0)) is False
        assert not est._types["t4"].dirty
        assert est._types["t4"].running.reports == count_before
        misses = est.cache_misses
        est.best_plan(config, memo)
        assert est.cache_misses == misses
        assert est._types["t4"].fit is fit_before

    def test_verdicts_match_statistics_median(self):
        """The defense sorts its window once and takes both medians by
        ``statistics.median``'s rule, so every verdict is the one two
        ``statistics.median`` calls give, on windows of odd and even
        length."""
        est = self.make()
        rng = random.Random(0)
        for _ in range(2000):
            window = [round(rng.uniform(0.05, 0.2), rng.choice([2, 6]))
                      for _ in range(rng.randint(4, 16))]
            iter_time = rng.choice(window) * rng.choice(
                [0.2, 0.33, 0.9, 1.0, 1.02, 1.1, 3.0, 3.5])
            median = statistics.median(window)
            mad = statistics.median(abs(x - median) for x in window)
            floor = max(mad, 1e-3 * median)
            expected = (
                abs(iter_time - median) <= est.OUTLIER_MAD_SIGMAS * floor
                or median / est.OUTLIER_RATIO_CAP <= iter_time
                <= median * est.OUTLIER_RATIO_CAP)
            assert est._observation_credible(window, iter_time) is expected

    def test_window_too_small_accepts_anything_finite(self):
        est = self.make()
        assert est.add_observation(obs(iter_time=0.1))
        assert est.add_observation(obs(iter_time=50.0))  # no window yet

    def test_windows_are_per_batch_plan(self):
        est = self.make()
        self.seed_window(est, iter_time=0.1)
        # A different batch plan has no history: a very different report
        # for it is credible.
        assert est.add_observation(obs(iter_time=2.0, local_bsz=64))

    def test_profile_initial_unaffected(self):
        est = self.make()
        est.profile_initial()
        assert est.rejected_observations == 0

    def test_unknown_type_still_raises(self):
        est = self.make()
        with pytest.raises(KeyError):
            est.add_observation(obs(gpu_type="a100"))


# -- health tracker ------------------------------------------------------------

def low_ratio(tracker, node_id, now, n=1, ratio=0.3):
    for _ in range(n):
        tracker.record_goodput([node_id], 1.0, ratio, now)


class TestBackoff:
    def test_jitter_deterministic_and_bounded(self):
        assert deterministic_jitter("a", 0.25) == \
            deterministic_jitter("a", 0.25)
        assert deterministic_jitter("a", 0.0) == 0.0
        for token in ("a", "b", "job:3"):
            assert 0.0 <= deterministic_jitter(token, 0.25) <= 0.25

    def test_backoff_doubles_and_caps(self):
        attempts = range(1, 8)
        bases = [min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (a - 1))
                 for a in attempts]
        assert bases[0] == BACKOFF_BASE_S and bases[-1] == BACKOFF_CAP_S
        for attempt, base in zip(attempts, bases):
            jitter = deterministic_jitter(f"j0:{attempt}", BACKOFF_JITTER)
            assert placement_backoff(attempt, "j0") == base * (1.0 + jitter)
        with pytest.raises(ValueError):
            placement_backoff(0, "j0")


class TestHealthTracker:
    def cfg(self, min_samples=3):
        return HealthConfig(min_samples=min_samples)

    def test_low_ratio_walks_probation_then_quarantine(self):
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, now=0.0, n=3, ratio=0.6)
        tracker.tick(0.0)
        assert tracker.node(0).state == PROBATION
        low_ratio(tracker, 0, now=60.0, n=6, ratio=0.1)
        tracker.tick(60.0)
        assert tracker.node(0).state == QUARANTINED
        kinds = [e.kind for e in tracker.drain_events()]
        assert kinds == ["probation", "quarantine"]

    def test_probation_recovers(self):
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, 0.0, n=3, ratio=0.6)
        tracker.tick(0.0)
        assert tracker.node(0).state == PROBATION
        low_ratio(tracker, 0, 60.0, n=20, ratio=1.0)
        tracker.tick(60.0)
        assert tracker.node(0).state == HEALTHY
        assert [e.kind for e in tracker.drain_events()] == \
            ["probation", "recover"]

    def test_min_samples_gate(self):
        tracker = HealthTracker(self.cfg(min_samples=5))
        low_ratio(tracker, 0, 0.0, n=4, ratio=0.1)
        tracker.tick(0.0)
        assert tracker.node(0).state == HEALTHY  # not enough evidence yet

    def test_placement_failures_quarantine(self):
        tracker = HealthTracker(self.cfg())
        for _ in range(PLACEMENT_FAILURE_THRESHOLD - 1):
            tracker.record_placement_failure("j0", 0, 0.0)
            tracker.tick(0.0)
        assert tracker.node(0).state == HEALTHY
        tracker.record_placement_failure("j0", 0, 60.0)
        tracker.tick(60.0)
        assert tracker.node(0).state == QUARANTINED
        assert "placement failures" in tracker.drain_events()[-1].detail

    def test_placement_success_resets_streak(self):
        tracker = HealthTracker(self.cfg())
        for _ in range(PLACEMENT_FAILURE_THRESHOLD - 1):
            tracker.record_placement_failure("j0", 0, 0.0)
        tracker.record_placement_success([0])
        tracker.record_placement_failure("j0", 0, 60.0)
        tracker.tick(60.0)
        assert tracker.node(0).state == HEALTHY

    def test_backoff_doubles_then_drains(self):
        tracker = HealthTracker(self.cfg())
        health = tracker.node(0)
        now = 0.0
        for trip in range(1, DRAIN_AFTER + 1):
            low_ratio(tracker, 0, now, n=3, ratio=0.1)
            tracker.tick(now)
            assert health.state == QUARANTINED
            # trip 1 waits the base; each later trip doubles it, capped.
            assert health.quarantined_until == now + min(
                QUARANTINE_CAP_S, QUARANTINE_BASE_S * 2 ** (trip - 1))
            now = health.quarantined_until
            tracker.tick(now)
            assert health.state == PROBATION  # reinstated on expiry
        low_ratio(tracker, 0, now, n=3, ratio=0.1)
        tracker.tick(now)
        assert health.state == DRAINED  # trips exceeded DRAIN_AFTER
        kinds = [e.kind for e in tracker.drain_events()]
        assert kinds.count("quarantine") == DRAIN_AFTER
        assert kinds[-1] == "drain"

    def test_healthy_view_identity_when_clean(self, hetero_cluster):
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, 0.0, n=3, ratio=0.9)
        assert tracker.healthy_view(hetero_cluster, 0.0) is hetero_cluster

    def test_healthy_view_filters_quarantined(self, hetero_cluster):
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, 0.0, n=3, ratio=0.1)
        tracker.tick(0.0)
        view = tracker.healthy_view(hetero_cluster, 0.0)
        assert 0 not in {n.node_id for n in view.nodes}
        assert len(view.nodes) == len(hetero_cluster.nodes) - 1

    def test_healthy_view_is_kept_while_its_inputs_hold(self,
                                                        hetero_cluster):
        """The same filtered object while the input cluster object and the
        excluded set stay the same, so per-cluster caches keep hitting; a
        new one when either changes."""
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, 0.0, n=3, ratio=0.1)
        tracker.tick(0.0)
        view = tracker.healthy_view(hetero_cluster, 0.0)
        assert view is not hetero_cluster
        assert tracker.healthy_view(hetero_cluster, 60.0) is view
        twin = Cluster(nodes=hetero_cluster.nodes)
        assert tracker.healthy_view(twin, 60.0) is not view
        assert tracker.healthy_view(twin, 60.0) == view
        low_ratio(tracker, 1, 60.0, n=3, ratio=0.1)
        tracker.tick(60.0)
        both = tracker.healthy_view(twin, 60.0)
        assert {0, 1}.isdisjoint(n.node_id for n in both.nodes)
        assert tracker.healthy_view(twin, 120.0) is both

    def test_emergency_reinstatement_is_never_answered_from_the_saved_view(
            self, tiny_cluster):
        """Each time every node is excluded, the tracker reinstates one,
        even when the same nodes were excluded, and the same cluster
        filtered, before."""
        tracker = HealthTracker(self.cfg())
        now = 0.0
        for _ in range(3):
            for node in tiny_cluster.nodes:
                low_ratio(tracker, node.node_id, now, n=3, ratio=0.1)
            tracker.tick(now)
            assert len(tracker.excluded_nodes()) == len(tiny_cluster.nodes)
            view = tracker.healthy_view(tiny_cluster, now)
            assert len(view.nodes) == 1
            details = [e.detail for e in tracker.drain_events()
                       if e.kind == "reinstate"]
            assert details == ["emergency reinstatement: every node was "
                               "excluded"]
            now += 60.0
        assert tracker.healthy_view(tiny_cluster, now) is view

    def test_pickles_alike_with_and_without_the_saved_view(
            self, hetero_cluster):
        """A tracker that has filtered a cluster pickles to the bytes of
        its twin that has not, and filters again once restored."""
        tracker, twin = HealthTracker(self.cfg()), HealthTracker(self.cfg())
        for each in (tracker, twin):
            low_ratio(each, 0, 0.0, n=3, ratio=0.1)
            each.tick(0.0)
            each.drain_events()
        view = tracker.healthy_view(hetero_cluster, 0.0)
        assert tracker._view is not None
        data = pickle.dumps(tracker)
        assert data == pickle.dumps(twin)
        restored = pickle.loads(data)
        assert restored._view is None
        assert restored.healthy_view(hetero_cluster, 0.0) == view

    def test_emergency_reinstate_keeps_cluster_nonempty(self, tiny_cluster):
        tracker = HealthTracker(self.cfg())
        for node in tiny_cluster.nodes:
            low_ratio(tracker, node.node_id, 0.0, n=3, ratio=0.1)
        tracker.tick(0.0)
        assert len(tracker.excluded_nodes()) == len(tiny_cluster.nodes)
        now = 120.0
        view = tracker.healthy_view(tiny_cluster, now)
        assert len(view.nodes) == 1
        assert tracker.node(view.nodes[0].node_id).state == PROBATION
        emergency = [e for e in tracker.drain_events()
                     if e.kind == "reinstate" and "emergency" in e.detail]
        assert len(emergency) == 1
        assert emergency[0].time == now

    def test_type_discounts_empty_without_probation(self, hetero_cluster):
        tracker = HealthTracker(self.cfg())
        assert tracker.type_discounts(hetero_cluster) == {}

    def test_type_discounts_weighted_by_flagged_fraction(self, tiny_cluster):
        tracker = HealthTracker(self.cfg())
        quad = next(n for n in tiny_cluster.nodes if n.gpu_type == "quad")
        low_ratio(tracker, quad.node_id, 0.0, n=3, ratio=0.6)
        tracker.tick(0.0)
        discounts = tracker.type_discounts(tiny_cluster)
        # The only quad node is on probation: full discount on that type.
        assert discounts == {"quad": pytest.approx(PROBATION_DISCOUNT)}

    def test_quarantine_liveness_property(self):
        """Seeded property (satellite 3): under arbitrary evidence, every
        node that ever quarantines is eventually reinstated or drained —
        no node is forgotten in quarantine — and every tracked node is
        always in a known state."""
        for seed in range(5):
            rng = random.Random(seed)
            tracker = HealthTracker(self.cfg())
            ever_quarantined: set[int] = set()
            now = 0.0
            for _ in range(300):
                now += 60.0
                for node_id in range(6):
                    draw = rng.random()
                    if draw < 0.2:
                        low_ratio(tracker, node_id, now, ratio=0.1)
                    elif draw < 0.8:
                        low_ratio(tracker, node_id, now, ratio=1.0)
                    if rng.random() < 0.1:
                        tracker.record_placement_failure("j", node_id, now)
                    else:
                        tracker.record_placement_success([node_id])
                tracker.tick(now)
                ever_quarantined |= {e.node_id for e in tracker.drain_events()
                                     if e.kind == "quarantine"}
                # Counting raises on a node in an unknown state.
                counts = tracker.state_counts()
                assert set(counts) == {HEALTHY, PROBATION, QUARANTINED,
                                       DRAINED}
                assert 0 < sum(counts.values()) <= 6
            # Evidence stops; backoffs expire within the cap.
            for _ in range(3):
                now += QUARANTINE_CAP_S + 1.0
                tracker.tick(now)
            assert ever_quarantined  # the property was exercised
            for node_id in ever_quarantined:
                assert tracker.node(node_id).state in (HEALTHY, PROBATION,
                                                       DRAINED)

    def test_quarantined_nodes_score_frozen(self):
        tracker = HealthTracker(self.cfg())
        low_ratio(tracker, 0, 0.0, n=3, ratio=0.1)
        tracker.tick(0.0)
        assert tracker.node(0).state == QUARANTINED
        low_ratio(tracker, 0, 60.0, n=10, ratio=1.0)
        assert tracker.node(0).samples == 0  # no evidence while excluded

    def test_event_round_trip(self):
        event = HealthEvent(kind="quarantine", time=60.0, node_id=3,
                            detail="ratio 0.30 < 0.45")
        assert HealthEvent.from_dict(event.to_dict()) == event
        assert "node 3" in event.describe()


# -- end-to-end defense --------------------------------------------------------

GRAY_MODELS = dict(rate=20.0, slowdown=0.3, duration=14400.0)


def gray_sim(cluster, *, health, seed=4, invariants="off", **kwargs):
    config = SimulatorConfig(
        profiling_mode=ProfilingMode.ORACLE, seed=seed, max_hours=100,
        fault_models=[GrayFailureModel(seed=17, **GRAY_MODELS)],
        health=HealthConfig(min_samples=3) if health else None,
        invariants=invariants, **kwargs)
    return Simulator(cluster, SiaScheduler(), jobs(4), config).run()


class TestHealthDefenseEndToEnd:
    def test_gray_run_quarantines_under_strict_invariants(
            self, hetero_cluster):
        """The full loop: gray nodes are detected from goodput divergence,
        quarantined out of the scheduler's view, and the strict invariant
        that no allocation touches a quarantined node holds throughout."""
        result = gray_sim(hetero_cluster, health=True, invariants="strict")
        counts = result.health_counts()
        assert counts.get("health.quarantine", 0) > 0
        kinds = {e.kind for _, e in result.health_timeline()}
        assert "quarantine" in kinds
        assert all(j.completed for j in result.jobs)

    def test_defense_recovers_goodput(self, hetero_cluster):
        """Quarantining gray nodes must beat scheduling onto them.

        The clearest victim is a rigid job on a FIFO scheduler: nothing
        ever migrates it off a gray node, so an undefended run pins it at
        gray speed for the node's whole episode, while the defense evicts
        and re-places it on clean spare capacity.  (Adaptive Sia runs at
        full cluster saturation have no spare capacity to re-place onto,
        so quarantine there trades speed for capacity roughly evenly.)"""
        from repro.workloads.tuning import tuned_jobs

        def run(*, gray, health):
            rigid = tuned_jobs(jobs(5, scale=8.0), hetero_cluster, seed=0)
            config = SimulatorConfig(
                profiling_mode=ProfilingMode.ORACLE, seed=4, max_hours=200,
                fault_models=[GrayFailureModel(rate=0.3, slowdown=0.25,
                                               duration=72000.0, seed=5)]
                if gray else [],
                health=HealthConfig(min_samples=3) if health else None)
            result = Simulator(hetero_cluster, FIFOScheduler(), rigid,
                               config).run()
            return sum(result.jcts_hours())

        clean = run(gray=False, health=False)
        undefended = run(gray=True, health=False)
        defended = run(gray=True, health=True)
        lost = undefended - clean
        assert lost > 0  # the gray episodes actually hurt
        recovered = undefended - defended
        assert recovered >= 0.5 * lost

    def test_deterministic_with_health(self, hetero_cluster):
        a = gray_sim(hetero_cluster, health=True)
        b = gray_sim(hetero_cluster, health=True)
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]
        assert [(i, e) for i, e in a.health_timeline()] == \
            [(i, e) for i, e in b.health_timeline()]

    def test_straggler_slowdown_is_not_treated_as_corruption(
            self, hetero_cluster):
        """Regression (satellite 5): a straggling node's 2x-slower reports
        are real telemetry and must not be double-counted as corrupt."""
        result = simulate(hetero_cluster, SiaScheduler(), jobs(),
                          max_hours=100,
                          fault_models=[StragglerModel(rate=60.0,
                                                       slowdown=0.5,
                                                       seed=8)])
        assert result.fault_counts().get("straggler", 0) > 0
        assert result.final_metrics.get("telemetry.rejected_observations",
                                        0) == 0

    def test_chaos_resume_bit_identical_with_health(self, hetero_cluster,
                                                    tmp_path):
        """Kill/resume equivalence with all three gray fault models and the
        health layer on: scores, backoffs and pending events must resume
        bit-identically (satellite of the tentpole's checkpoint clause)."""
        def factory(ckpt_cfg):
            config = SimulatorConfig(
                profiling_mode=ProfilingMode.ORACLE, seed=4, max_hours=60,
                fault_models=[
                    GrayFailureModel(seed=17, **GRAY_MODELS),
                    PlacementFailureModel(failure_prob=0.2, seed=18),
                    TelemetryCorruptionModel(rate=0.2, seed=19)],
                health=HealthConfig(min_samples=3),
                invariants="strict", checkpoint=ckpt_cfg)
            return Simulator(hetero_cluster, SiaScheduler(), jobs(4), config)

        # Kill at the reference run's last round boundary, after its
        # last checkpoint, so the resume replays state from mid-run.
        rounds = len(factory(None).run().rounds)
        report = run_chaos(factory, directory=tmp_path, kill_round=rounds,
                           every_rounds=5)
        assert report.reference_rounds == rounds > 5
        assert report.crashed
        assert report.resumed_from_round >= 0
        assert report.equivalent, report.mismatches[:5]


class TestHealthEventsIO:
    def test_result_round_trip_preserves_health_events(self, hetero_cluster,
                                                       tmp_path):
        result = gray_sim(hetero_cluster, health=True)
        timeline = result.health_timeline()
        assert timeline
        path = tmp_path / "res.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        assert loaded.health_timeline() == timeline
        assert loaded.health_counts() == result.health_counts()

    def test_health_events_jsonl_round_trip(self, hetero_cluster, tmp_path):
        result = gray_sim(hetero_cluster, health=True)
        path = tmp_path / "health.jsonl"
        HealthEventStreamObserver(path, "sia").on_finalize(result)
        assert io.load_health_events(path) == result.health_timeline()
        assert json.loads(path.read_text().splitlines()[-1]) == {
            "kind": "health_events_end", "num_rounds": len(result.rounds)}
