"""Tests for the per-job Goodput Estimator: profiling modes, bootstrapping
lifecycle (Section 3.2), caching."""

import ast
import pickle
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import MethodType

import pytest

from repro.cluster import presets
from repro.core.configs import build_config_set
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.estimator import (WORK, JobConstraints, JobPerfEstimator,
                                  plan_requests)
from repro.perf.fitting import Observation
from repro.perf.throughput import ThroughputModel
from repro.schedulers.pollux import PolluxEstimator
from tests.oracle import probe_afresh

TYPES = ("t4", "rtx", "a100")


def make_estimator(mode=ProfilingMode.BOOTSTRAP, model="bert"):
    profile = profiles.model_profile(model)
    constraints = JobConstraints(min_bsz=profile.min_bsz,
                                 max_bsz=profile.max_bsz)
    return JobPerfEstimator(model, constraints, TYPES, mode)


def true_observation(model, gpu_type, n, k, m, s=1) -> Observation:
    true_model = ThroughputModel(profiles.true_throughput_params(model, gpu_type))
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=s,
                       iter_time=true_model.iter_time(m, k, n, s))


class TestProfiling:
    def test_bootstrap_profiles_all_types(self):
        est = make_estimator()
        cost = est.profile_initial()
        assert cost > 0
        assert est.profiling_gpu_seconds == cost
        for t in TYPES:
            assert est._types[t].running.reports

    def test_bootstrap_cost_is_small(self):
        """Section 3.2: < 20 GPU-seconds per GPU type on average."""
        est = make_estimator(model="resnet18")
        cost = est.profile_initial()
        assert cost < 20 * len(TYPES)

    def test_oracle_profiles_nothing(self):
        est = make_estimator(ProfilingMode.ORACLE)
        assert est.profile_initial() == 0.0
        assert not est._types["t4"].running.reports

    def test_no_prof_profiles_nothing(self):
        est = make_estimator(ProfilingMode.NO_PROF)
        assert est.profile_initial() == 0.0


class TestThroughputDispatch:
    def test_oracle_matches_truth(self):
        est = make_estimator(ProfilingMode.ORACLE)
        true_model = ThroughputModel(
            profiles.true_throughput_params("bert", "a100"))
        assert est.throughput("a100", 16, 8, 1) == pytest.approx(
            true_model.throughput(16, 8, 1))

    def test_single_gpu_fit_matches_truth_after_profiling(self):
        est = make_estimator()
        est.profile_initial()
        true_model = ThroughputModel(
            profiles.true_throughput_params("bert", "rtx"))
        assert est.throughput("rtx", 16, 1, 1) == pytest.approx(
            true_model.throughput(16, 1, 1), rel=0.05)

    def test_perfect_scaling_before_any_multi_gpu_run(self):
        """Section 3.2: with no multi-GPU experience anywhere, throughput of
        N replicas is assumed N x the single-replica rate."""
        est = make_estimator()
        est.profile_initial()
        single = est.throughput("t4", 16, 1, 1)
        assert est.throughput("t4", 16, 4, 1) == pytest.approx(4 * single,
                                                               rel=0.05)

    def test_bootstrap_after_multi_gpu_on_reference_type(self):
        """Once the job ran multi-GPU on A, estimates for B come from
        Equation (1) — below perfect scaling because A's sync cost leaks in."""
        est = make_estimator()
        est.profile_initial()
        for k in (2, 4):
            est.add_observation(true_observation("bert", "rtx", 1, k, 16))
        assert est._fit("rtx").has_multi_gpu
        single_t4 = est.throughput("t4", 16, 1, 1)
        est_t4_multi = est.throughput("t4", 16, 4, 1)
        assert est_t4_multi < 4 * single_t4  # no longer perfect scaling
        assert est_t4_multi > single_t4

    def test_own_experience_overrides_bootstrap(self):
        est = make_estimator()
        est.profile_initial()
        for k in (2, 4):
            est.add_observation(true_observation("bert", "rtx", 1, k, 16))
            est.add_observation(true_observation("bert", "t4", 1, k, 16))
        truth = ThroughputModel(profiles.true_throughput_params("bert", "t4"))
        assert est.throughput("t4", 16, 4, 1) == pytest.approx(
            truth.throughput(16, 4, 1), rel=0.05)

    def test_no_prof_cold_start_is_type_blind(self):
        est = make_estimator(ProfilingMode.NO_PROF)
        assert est.throughput("t4", 16, 1, 1) == \
            est.throughput("a100", 16, 1, 1)

    def test_unknown_type_observation_rejected(self):
        est = make_estimator()
        with pytest.raises(KeyError):
            est.add_observation(true_observation("bert", "quad", 1, 1, 16))


class TestGoodput:
    def test_goodput_positive_after_profiling(self):
        est = make_estimator()
        est.profile_initial()
        for config in (Configuration(1, 1, "t4"), Configuration(1, 8, "a100")):
            assert est.goodput(config) > 0

    def test_goodput_zero_when_model_does_not_fit(self):
        est = make_estimator(model="gpt-2.8b")
        est.profile_initial()
        assert est.goodput(Configuration(1, 1, "a100")) == 0.0

    def test_a100_beats_t4_for_bert(self):
        est = make_estimator()
        est.profile_initial()
        assert est.goodput(Configuration(1, 1, "a100")) > \
            3 * est.goodput(Configuration(1, 1, "t4"))

    def test_fixed_batch_constraint_respected(self):
        profile = profiles.model_profile("bert")
        constraints = JobConstraints(min_bsz=profile.min_bsz,
                                     max_bsz=profile.max_bsz,
                                     fixed_total_bsz=48)
        est = JobPerfEstimator("bert", constraints, TYPES)
        est.profile_initial()
        plan = est.best_plan(Configuration(1, 2, "a100"))
        assert plan is not None
        assert plan.total_batch_size <= 48

    def test_goodput_cache_invalidated_by_observation(self):
        est = make_estimator()
        est.profile_initial()
        config = Configuration(1, 4, "rtx")
        before = est.goodput(config)
        for k in (2, 4):
            est.add_observation(true_observation("bert", "rtx", 1, k, 16))
        after = est.goodput(config)
        assert after != before  # sync costs now modeled

    def test_gradient_stats_update_changes_efficiency(self):
        est = make_estimator(ProfilingMode.NO_PROF)
        est.add_observation(true_observation("bert", "a100", 1, 1, 16))
        before = est.efficiency_model.params.grad_noise_scale
        true_phi = profiles.true_efficiency_params("bert").grad_noise_scale
        est.update_gradient_stats(true_phi)
        assert est.efficiency_model.params.grad_noise_scale > before

    def test_noop_gradient_update_keeps_cache(self):
        est = make_estimator()  # bootstrap: phi already true
        est.profile_initial()
        config = Configuration(1, 2, "a100")
        memo: dict = {}
        before = est.goodput(config, memo)
        true_phi = profiles.true_efficiency_params("bert").grad_noise_scale
        est.update_gradient_stats(true_phi)
        hits = est.cache_hits
        assert est.goodput(config, memo) == before
        assert est.cache_hits == hits + 1


class TestIncrementalCacheInvalidation:
    """Plans are memoized under everything they read, per GPU type: a fit
    change on one type must not change the keys of plans whose estimates
    never read that type, and an observation that leaves every fit
    unchanged changes no key."""

    def test_observation_keeps_other_types_warm(self):
        est = make_estimator()
        est.profile_initial()
        t4 = Configuration(1, 1, "t4")
        a100 = Configuration(1, 1, "a100")
        rtx = Configuration(1, 1, "rtx")
        memo: dict = {}
        for config in (t4, a100, rtx):
            est.best_plan(config, memo)  # populate
        est.cache_hits = est.cache_misses = 0
        est.add_observation(true_observation("bert", "rtx", 1, 2, 16))
        # Single-GPU estimates on t4/a100 come from those types' own fits,
        # which did not move: still memo hits.
        before_t4, before_a100 = est.goodput(t4, memo), est.goodput(a100, memo)
        assert est.cache_hits == 2 and est.cache_misses == 0
        # The rtx fit moved, and with it the key of the rtx plan.
        est.goodput(rtx, memo)
        assert est.cache_misses == 1
        assert (before_t4, before_a100) == (est.goodput(t4, memo),
                                            est.goodput(a100, memo))

    def test_bootstrapped_entries_invalidated_by_any_fit_change(self):
        """Multi-GPU estimates without own multi-GPU experience read *every*
        type's fit (Equation 1 picks the reference type), so a fit change
        on any type must change their key."""
        est = make_estimator()
        est.profile_initial()
        multi_t4 = Configuration(1, 4, "t4")
        memo: dict = {}
        before = est.goodput(multi_t4, memo)
        est.cache_hits = est.cache_misses = 0
        # rtx multi-GPU data arrives: t4's 4-GPU estimate now bootstraps
        # from rtx instead of perfect scaling.
        for k in (2, 4):
            est.add_observation(true_observation("bert", "rtx", 1, k, 16))
        after = est.goodput(multi_t4, memo)
        assert est.cache_misses == 1 and est.cache_hits == 0
        assert after != before

    def test_unchanged_fit_keeps_every_entry_warm(self):
        """A running job re-reports the iteration times it reported before
        (zero observation noise), round after round: the refits reproduce
        the stored fits up to float noise (``FIT_RTOL``), so no stored fit
        is replaced and every plan — own-fit or bootstrapped — hits."""
        est = make_estimator()
        est.profile_initial()
        rtx_obs = true_observation("bert", "rtx", 1, 2, 16)
        est.add_observation(rtx_obs)
        configs = [Configuration(1, k, t) for t in TYPES for k in (1, 2, 4)]
        memo: dict = {}
        before = est.goodput_batch(configs, memo)
        est.cache_hits = est.cache_misses = 0
        fits = [est._types[t].fit for t in TYPES]
        moved = WORK["moved"]
        # The first size profile_initial measured on t4.
        first_size = max(1, min(est.constraints.min_bsz,
                                est.max_local_bsz("t4")))
        profiled = true_observation("bert", "t4", 1, 1, first_size)
        rounds = 50
        for _ in range(rounds):
            for obs in (rtx_obs, profiled):
                assert est.add_observation(obs)
            assert est.goodput_batch(configs, memo).tolist() == \
                before.tolist()
        assert est.cache_misses == 0
        assert est.cache_hits == rounds * len(configs)
        assert all(est._types[t].fit is fit for t, fit in zip(TYPES, fits))
        assert WORK["moved"] == moved

    def test_small_real_change_still_invalidates(self):
        """A report 1e-6 relative off its predecessor is evidence, not
        float noise: the refit moves the fit past ``FIT_RTOL``, so the
        stored fit is replaced and the plans reading it miss."""
        est = make_estimator()
        est.profile_initial()
        rtx_obs = true_observation("bert", "rtx", 1, 2, 16)
        est.add_observation(rtx_obs)
        configs = [Configuration(1, k, "rtx") for k in (1, 2, 4)]
        memo: dict = {}
        est.goodput_batch(configs, memo)
        est.cache_hits = est.cache_misses = 0
        moved = WORK["moved"]
        assert est.add_observation(
            replace(rtx_obs, iter_time=rtx_obs.iter_time * (1 + 1e-6)))
        est.goodput_batch(configs, memo)
        assert WORK["moved"] == moved + 1
        assert est.cache_misses == len(configs) and est.cache_hits == 0

    def test_lazy_refit_on_other_type_invalidates_bootstrap_entry(self):
        """The bootstrapped t4 plan reads rtx's fit, which is refitted
        lazily.  Querying t4 first — before anything else touches rtx —
        must still see the rtx fit change, miss, and match a fresh
        estimator fed the same evidence."""
        est = make_estimator()
        est.profile_initial()
        multi_t4 = Configuration(1, 4, "t4")
        memo: dict = {}
        est.goodput(multi_t4, memo)
        est.cache_hits = est.cache_misses = 0
        observations = [true_observation("bert", "rtx", 1, k, 16)
                        for k in (2, 4)]
        for obs in observations:
            est.add_observation(obs)
        after = est.goodput(multi_t4, memo)
        assert est.cache_misses == 1 and est.cache_hits == 0
        fresh = make_estimator()
        fresh.profile_initial()
        for obs in observations:
            fresh.add_observation(obs)
        assert after == fresh.goodput(multi_t4)

    def test_oracle_cache_survives_observations(self):
        est = make_estimator(ProfilingMode.ORACLE)
        config = Configuration(1, 4, "a100")
        memo: dict = {}
        est.goodput(config, memo)
        est.cache_hits = est.cache_misses = 0
        est.add_observation(true_observation("bert", "a100", 1, 4, 16))
        est.goodput(config, memo)
        assert est.cache_hits == 1 and est.cache_misses == 0

    def test_gradient_stats_change_invalidates_everything(self):
        est = make_estimator(ProfilingMode.NO_PROF)
        config = Configuration(1, 1, "t4")
        memo: dict = {}
        est.goodput(config, memo)
        true_phi = profiles.true_efficiency_params("bert").grad_noise_scale
        est.update_gradient_stats(true_phi * 3)
        est.cache_hits = est.cache_misses = 0
        est.goodput(config, memo)
        assert est.cache_misses == 1

    def test_steady_state_hit_rate_positive(self):
        """A running job re-evaluated across consecutive rounds with no new
        evidence answers from the memo: every steady-state query hits."""
        est = make_estimator()
        est.profile_initial()
        configs = [Configuration(1, k, t) for t in TYPES for k in (1, 2, 4)]
        memo: dict = {}
        for config in configs:  # round 1: cold
            est.goodput(config, memo)
        est.cache_hits = est.cache_misses = 0
        for _ in range(3):  # rounds 2-4: steady state
            for config in configs:
                est.goodput(config, memo)
            # converged noise-scale reports must not change any key
            est.update_gradient_stats(
                est.efficiency_model.params.grad_noise_scale)
        assert est.cache_misses == 0
        assert est.cache_hits == 3 * len(configs)


#: one request row: every type at one GPU, within a node and across nodes.
ROW = [Configuration(n, k, t) for t in TYPES
       for n, k in ((1, 1), (1, 2), (1, 4), (1, 8), (2, 16), (4, 32))]


def grouped_estimator(kind: str) -> JobPerfEstimator:
    """A fresh estimator of one kind, with what it knows at submission:
    a profiling mode's or Pollux's."""
    if kind == "pollux":
        profile = profiles.model_profile("bert")
        return PolluxEstimator("bert", JobConstraints(
            min_bsz=profile.min_bsz, max_bsz=profile.max_bsz), TYPES)
    est = make_estimator(ProfilingMode[kind])
    est.profile_initial()
    return est


#: evidence between rounds: rtx multi-GPU reports (its fit and the
#: bootstrap references move), then a t4 1-GPU report at a batch size
#: profiling did not measure (one type moves).
EVIDENCE = [[true_observation("bert", "rtx", 1, k, 16) for k in (2, 4)],
            [true_observation("bert", "t4", 1, 1, 20)],
            [true_observation("bert", "a100", 2, 16, 16)]]


class TestGroupToken:
    """:meth:`JobPerfEstimator._probe` shares one branch and one plan key
    across consecutive configurations of a (GPU type, 1-GPU or multi-GPU)
    group, and answers exactly as one key per configuration does, in any
    order."""

    KINDS = ["BOOTSTRAP", "NO_PROF", "ORACLE", "pollux"]

    @staticmethod
    def count_keys(monkeypatch) -> Counter:
        """Count the row keys built (:meth:`JobPerfEstimator._plan_key`
        calls), per GPU type."""
        calls: Counter = Counter()
        real = JobPerfEstimator._plan_key

        def counting(self, branch, gpu_type):
            calls[gpu_type] += 1
            return real(self, branch, gpu_type)
        monkeypatch.setattr(JobPerfEstimator, "_plan_key", counting)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_at_most_two_tokens_per_type(self, monkeypatch, kind):
        est = grouped_estimator(kind)
        calls = self.count_keys(monkeypatch)
        for evidence in [[], *EVIDENCE]:
            for report in evidence:
                est.add_observation(report)
            calls.clear()
            est._probe(ROW, [], {})
            assert set(calls) == set(TYPES)
            assert max(calls.values()) <= 2

    @pytest.mark.parametrize("cluster", [presets.heterogeneous(),
                                         presets.scaled_heterogeneous(1024)],
                             ids=["heterogeneous", "scaled1024"])
    def test_sia_rows_list_each_group_together(self, cluster):
        """Sia's rows are slices of its configuration set, which lists each
        group's configurations together: one key per group."""
        keys = [(c.gpu_type, c.num_gpus == 1)
                for c in build_config_set(cluster)]
        runs = [k for i, k in enumerate(keys) if i == 0 or keys[i - 1] != k]
        assert len(runs) == len(set(keys)) == 2 * len(cluster.gpu_types)

    @pytest.mark.parametrize("order", ["type-major", "count-major"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_one_token_per_configuration(self, kind, order):
        """Round by round, with evidence in between whose lazy refits run
        partway through the row, the grouped probe returns the plans,
        counters and stored fits of a per-configuration loop."""
        row = ROW if order == "type-major" else sorted(
            ROW, key=lambda c: (c.num_gpus, TYPES.index(c.gpu_type)))
        grouped, reference = grouped_estimator(kind), grouped_estimator(kind)
        grouped_memo: dict = {}
        reference_memo: dict = {}
        for evidence in [[], [], *EVIDENCE]:
            for report in evidence:
                grouped.add_observation(report)
                reference.add_observation(report)
            plans = grouped.best_plans(row, grouped_memo)
            # One request per configuration: one key each, in one pass.
            assert plans == [alone for alone, in plan_requests(
                [(reference, [config]) for config in row],
                memo=reference_memo)]
            assert (grouped.cache_hits, grouped.cache_misses) == \
                (reference.cache_hits, reference.cache_misses)
            assert [grouped._types[t].fit for t in TYPES] == \
                [reference._types[t].fit for t in TYPES]
        assert grouped.cache_hits and grouped.cache_misses

    @staticmethod
    def count_refits(monkeypatch) -> Counter:
        """Count the ``_fit`` calls that refit (on a dirty type), per GPU
        type."""
        calls: Counter = Counter()
        real = JobPerfEstimator._fit

        def counting(self, gpu_type):
            if self._types[gpu_type].dirty:
                calls[gpu_type] += 1
            return real(self, gpu_type)
        monkeypatch.setattr(JobPerfEstimator, "_fit", counting)
        return calls

    def test_tokens_call_fit_only_for_dirty_types(self, monkeypatch):
        """A clean type's stored fit is read as it is: probing a warm row
        refits only the type a report at a new batch size dirtied, once;
        the same report again dirties nothing."""
        est = grouped_estimator("BOOTSTRAP")
        memo: dict = {}
        est.best_plans(ROW, memo)
        calls = self.count_refits(monkeypatch)
        est._probe(ROW, [], memo)
        assert not calls
        report = EVIDENCE[1][0]  # a t4 1-GPU report at a new batch size
        est.add_observation(report)
        est._probe(ROW, [], memo)
        assert calls == {"t4": 1}
        calls.clear()
        est.add_observation(report)
        est._probe(ROW, [], memo)
        assert not calls

    @pytest.mark.parametrize("kind", ["BOOTSTRAP", "pollux"])
    def test_re_report_equal_to_its_mean_leaves_the_type_clean(
            self, monkeypatch, kind):
        """An accepted report equal to its configuration's mean moves no
        mean, so it marks no type dirty: the next probe refits nothing,
        keeps every stored fit and hits on every plan."""
        est = grouped_estimator(kind)
        for evidence in EVIDENCE:
            for report in evidence:
                est.add_observation(report)
        memo: dict = {}
        est.best_plans(ROW, memo)
        fits = [est._types[t].fit for t in TYPES]
        refits = (WORK["refits"], WORK["moved"])
        calls = self.count_refits(monkeypatch)
        for evidence in EVIDENCE:
            for report in evidence:
                assert est.add_observation(report)
        assert not any(est._types[t].dirty for t in TYPES)
        est.cache_hits = est.cache_misses = 0
        est.best_plans(ROW, memo)
        assert not calls
        assert (est.cache_hits, est.cache_misses) == (len(ROW), 0)
        assert all(est._types[t].fit is fit for t, fit in zip(TYPES, fits))
        assert (WORK["refits"], WORK["moved"]) == refits

    def test_refit_partway_through_the_row_moves_later_tokens(self):
        """rtx's lazy refit runs at the row's first t4 multi-GPU entry (a
        bootstrap key reads every type's fit): every rtx entry after it
        misses, while t4's 1-GPU entry before it still hits."""
        est = grouped_estimator("BOOTSTRAP")
        row = [Configuration(1, 1, "t4"), Configuration(1, 2, "t4"),
               Configuration(1, 1, "rtx"), Configuration(1, 2, "rtx")]
        memo: dict = {}
        est.best_plans(row, memo)
        moved = WORK["moved"]
        for report in EVIDENCE[0]:
            est.add_observation(report)
        est.cache_hits = est.cache_misses = 0
        est.best_plans(row, memo)
        assert WORK["moved"] == moved + 1
        assert (est.cache_hits, est.cache_misses) == (1, 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_probe_without_new_evidence_builds_no_key(self, monkeypatch,
                                                      kind):
        """A second probe with no report in between reuses every group's
        key, in a round pass and in a single lookup alike."""
        est = grouped_estimator(kind)
        memo: dict = {}
        first = est.best_plans(ROW, memo)
        calls = self.count_keys(monkeypatch)
        assert plan_requests([(est, ROW)], memo=memo)[0] == first
        assert est.best_plan(ROW[-1], memo) == first[-1]
        assert not calls

    @pytest.mark.parametrize("kind", ["BOOTSTRAP", "pollux"])
    def test_report_moving_no_mean_builds_no_key(self, monkeypatch, kind):
        """Accepted reports equal to their means dirty no type, so the
        next probe builds no key."""
        est = grouped_estimator(kind)
        for evidence in EVIDENCE:
            for report in evidence:
                est.add_observation(report)
        memo: dict = {}
        est.best_plans(ROW, memo)
        calls = self.count_keys(monkeypatch)
        for evidence in EVIDENCE:
            for report in evidence:
                assert est.add_observation(report)
        est.best_plans(ROW, memo)
        assert not calls

    def test_dirtying_report_rebuilds_the_keys_that_read_it(self,
                                                           monkeypatch):
        """A report that moves t4's fit empties every slot: the next probe
        builds one key per group.  The keys that hold t4's fit, its own
        two, change (t4 has no multi-GPU data, so it is no Equation (1)
        reference); every other key comes out as it was."""
        est = grouped_estimator("BOOTSTRAP")
        for report in EVIDENCE[0]:
            est.add_observation(report)
        est._probe(ROW, [], {})
        before = dict(est._slots)
        slow = EVIDENCE[1][0]
        assert est.add_observation(replace(slow,
                                           iter_time=1.5 * slow.iter_time))
        assert not est._slots
        calls = self.count_keys(monkeypatch)
        est._probe(ROW, [], {})
        assert calls == dict.fromkeys(TYPES, 2)
        assert {group for group, slot in est._slots.items()
                if slot != before[group]} == {("t4", True), ("t4", False)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_noise_scale_move_empties_every_slot(self, monkeypatch, kind):
        """A converged noise-scale report keeps every slot; one that moves
        the noise scale leaves none, and the next probe builds the keys an
        estimator that never held a slot builds."""
        est, twin = grouped_estimator(kind), grouped_estimator(kind)
        est.best_plans(ROW, {})
        phi = est.efficiency_model.params.grad_noise_scale
        est.update_gradient_stats(phi)
        assert len(est._slots) == 2 * len(TYPES)
        for moved in (est, twin):
            moved.update_gradient_stats(3 * phi)
        assert not est._slots
        calls = self.count_keys(monkeypatch)
        est._probe(ROW, [], {})
        twin._probe(ROW, [], {})
        assert calls == dict.fromkeys(TYPES, 4)
        assert est._slots == twin._slots

    def test_update_gradient_stats_is_the_only_noise_scale_writer(self):
        """Row keys hold the efficiency values, and only
        ``update_gradient_stats`` empties the slots when they move, so no
        other code in the package calls ``update_noise_scale``."""

        class Callers(ast.NodeVisitor):
            def __init__(self):
                self.scopes, self.found = ["<module>"], []

            def visit_FunctionDef(self, node):
                self.scopes.append(node.name)
                self.generic_visit(node)
                self.scopes.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node):
                if getattr(node.func, "attr", None) == "update_noise_scale":
                    self.found.append(self.scopes[-1])
                self.generic_visit(node)

        callers = Callers()
        src = Path(__file__).resolve().parents[1] / "src"
        for path in sorted(src.rglob("*.py")):
            callers.visit(ast.parse(path.read_text(), str(path)))
        assert set(callers.found) == {"update_gradient_stats"}


#: what reaches an estimator between probe rounds: reports, and the noise
#: scale reported as a factor of the current one (None: no report; 1.0:
#: a converged report).  The fifth round re-reports the first evidence,
#: which moves no mean.
ROUNDS = [([], None), ([], 1.4), (EVIDENCE[0], None), (EVIDENCE[1], 0.7),
          (EVIDENCE[0], 1.0), ([], None), (EVIDENCE[2], 1.2)]

#: the probes of one round: a round pass, single lookups, a row that
#: meets each group again, and one type's row.
PROBES = [
    lambda est, memo: plan_requests([(est, ROW)], memo=memo)[0],
    lambda est, memo: [est.best_plan(ROW[i], memo) for i in (7, 0, 13)],
    lambda est, memo: plan_requests([(est, sorted(
        ROW, key=lambda c: (c.num_gpus, TYPES.index(c.gpu_type))))],
        memo=memo)[0],
    lambda est, memo: est.best_plans(ROW[6:12], memo),
]


class TestKeySlots:
    """Keeping each group's row key until evidence changes moves nothing
    an estimator answers, counts, refits or pickles."""

    KINDS = TestGroupToken.KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_reuse_changes_nothing(self, monkeypatch, kind):
        """Over rounds of interleaved reports and noise-scale updates, each
        probe returns the plans, counters, ``WORK`` refits and moves,
        stored fits and memo rows of an estimator that empties its slots
        before every probe, while building fewer keys."""
        kept, reference = grouped_estimator(kind), grouped_estimator(kind)
        reference._probe = MethodType(probe_afresh, reference)
        memos = {id(kept): {}, id(reference): {}}
        built: Counter = Counter()
        real = JobPerfEstimator._plan_key

        def counting(self, branch, gpu_type):
            built[self is kept] += 1
            return real(self, branch, gpu_type)
        monkeypatch.setattr(JobPerfEstimator, "_plan_key", counting)
        for reports, factor in ROUNDS:
            for est in (kept, reference):
                for report in reports:
                    est.add_observation(report)
                if factor is not None:
                    est.update_gradient_stats(
                        factor * est.efficiency_model.params.grad_noise_scale)
            for probe in PROBES:
                answers = []
                for est in (kept, reference):
                    work = dict(WORK)
                    plans = probe(est, memos[id(est)])
                    answers.append((
                        plans, {k: WORK[k] - work[k] for k in WORK},
                        est.cache_hits, est.cache_misses,
                        [est._types[t].fit for t in TYPES],
                        list(memos[id(est)])))
                assert answers[0] == answers[1]
        assert 0 < built[True] < built[False]

    @pytest.mark.parametrize("kind", KINDS)
    def test_slots_are_not_pickled(self, monkeypatch, kind):
        """A probed estimator pickles to the bytes of a twin that has the
        same evidence and made the same probes but holds no slot, and to
        the bytes the default reduction gives that twin without its slots
        and saved row; unpickled, it holds no slot and probes to the same
        keys, plans and counters."""
        probed, twin = grouped_estimator(kind), grouped_estimator(kind)
        memos: list[dict] = [{}, {}]
        for est, memo in zip((probed, twin), memos):
            for report in EVIDENCE[0]:
                est.add_observation(report)
            est.best_plans(ROW, memo)
        twin._slots.clear()
        assert probed._slots
        data = pickle.dumps(probed)
        assert data == pickle.dumps(twin)

        restored = pickle.loads(data)
        assert restored._slots == {}
        assert restored.best_plans(ROW, memos[1]) == \
            probed.best_plans(ROW, memos[0])
        assert restored._slots == probed._slots
        assert (restored.cache_hits, restored.cache_misses) == \
            (probed.cache_hits, probed.cache_misses)

        del twin._slots, twin._row
        monkeypatch.delattr(JobPerfEstimator, "__getstate__")
        assert pickle.dumps(twin) == data


class TestSavedRow:
    """A probe that hits on every configuration saves its row; the next
    probe of the same list object on the same memo returns it, until the
    evidence changes or the memo is cleared."""

    @staticmethod
    def saved(kind: str = "BOOTSTRAP") -> tuple[JobPerfEstimator, dict]:
        est, memo = grouped_estimator(kind), {}
        est.best_plans(ROW, memo)
        assert est._row is None  # it missed, so it saved nothing
        est.best_plans(ROW, memo)
        assert est._row is not None and est._row[0] is ROW
        return est, memo

    @pytest.mark.parametrize("kind", TestGroupToken.KINDS)
    def test_the_same_list_is_answered_from_the_saved_row(self, kind):
        """Planting a marker in the memo shows which probes read it: the
        same list does not, an equal new list does."""
        est, memo = self.saved(kind)
        plans = est.best_plans(ROW, memo)
        memo_row = memo[est._row[2]]
        shape = next(iter(memo_row))
        memo_row[shape] = "marker"
        hits = est.cache_hits
        assert est.best_plans(ROW, memo) == plans
        assert est.cache_hits == hits + len(ROW)
        assert "marker" in est.best_plans(list(ROW), memo)

    def test_new_evidence_drops_the_row(self):
        est, _ = self.saved()
        est.add_observation(EVIDENCE[0][0])
        assert est._row is None and not est._slots
        est, _ = self.saved()
        est.update_gradient_stats(
            2 * est.efficiency_model.params.grad_noise_scale)
        assert est._row is None and not est._slots

    def test_a_cleared_or_other_memo_is_probed(self):
        est, memo = self.saved()
        memo.clear()
        misses = est.cache_misses
        est.best_plans(ROW, memo)
        assert est.cache_misses == misses + len(ROW)
        misses = est.cache_misses
        est.best_plans(ROW, {})
        assert est.cache_misses == misses + len(ROW)

    def test_saved_row_is_not_pickled(self):
        """Twins with the same evidence, probes and counters pickle alike
        whether or not they hold a saved row."""
        (holding, _), (twin, _) = self.saved(), self.saved()
        twin._row = None
        assert pickle.dumps(holding) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(holding))._row is None


class TestSeededPass:
    def test_sia_scale1024_builds_a_third_of_its_keys(self, monkeypatch,
                                                      tmp_path):
        """The seed-1 sia-scale1024 benchmark pass builds 15,882 row keys
        when every probe builds each group's key, and 5,439 when keys are
        kept until evidence changes."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
        import scenarios
        calls = TestGroupToken.count_keys(monkeypatch)
        scenarios.sia_scale1024(1, False, tmp_path).simulator.run()
        kept = sum(calls.values())
        calls.clear()
        monkeypatch.setattr(JobPerfEstimator, "_probe", probe_afresh)
        scenarios.sia_scale1024(1, False, tmp_path).simulator.run()
        assert sum(calls.values()) == 15_882
        assert kept <= 5_500


class TestMemoryKnowledge:
    def test_max_local_bsz_capped_by_job_max(self):
        profile = profiles.model_profile("resnet18")
        constraints = JobConstraints(min_bsz=profile.min_bsz, max_bsz=256)
        est = JobPerfEstimator("resnet18", constraints, TYPES)
        assert est.max_local_bsz("a100") == 256

    def test_max_local_bsz_follows_memory(self):
        est = make_estimator()
        assert est.max_local_bsz("a100") > est.max_local_bsz("rtx")
