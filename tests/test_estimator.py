"""Tests for the per-job Goodput Estimator: profiling modes, bootstrapping
lifecycle (Section 3.2), caching."""

import pytest

from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import Observation
from repro.perf.throughput import ThroughputModel

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
            assert est.has_profile(t)

    def test_bootstrap_cost_is_small(self):
        """Section 3.2: < 20 GPU-seconds per GPU type on average."""
        est = make_estimator(model="resnet18")
        cost = est.profile_initial()
        assert cost < 20 * len(TYPES)

    def test_oracle_profiles_nothing(self):
        est = make_estimator(ProfilingMode.ORACLE)
        assert est.profile_initial() == 0.0
        assert not est.has_profile("t4")

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
        assert est.has_multi_gpu_experience("rtx")
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
        before = est.goodput(config)
        true_phi = profiles.true_efficiency_params("bert").grad_noise_scale
        est.update_gradient_stats(true_phi)
        assert est.goodput(config) == before


class TestIncrementalCacheInvalidation:
    """Per-GPU-type, per-fit-change cache invalidation: a fit change on one
    type must not evict memoized plans whose estimates never read that
    type, and an observation that leaves every fit unchanged evicts
    nothing."""

    def test_observation_keeps_other_types_warm(self):
        est = make_estimator()
        est.profile_initial()
        t4 = Configuration(1, 1, "t4")
        a100 = Configuration(1, 1, "a100")
        rtx = Configuration(1, 1, "rtx")
        for config in (t4, a100, rtx):
            est.best_plan(config)  # populate
        est.cache_hits = est.cache_misses = 0
        est.add_observation(true_observation("bert", "rtx", 1, 2, 16))
        # Single-GPU estimates on t4/a100 come from those types' own fits,
        # whose epochs did not move: still cache hits.
        before_t4, before_a100 = est.goodput(t4), est.goodput(a100)
        assert est.cache_hits == 2 and est.cache_misses == 0
        # The rtx entry saw its type epoch move: recomputed.
        est.goodput(rtx)
        assert est.cache_misses == 1
        assert (before_t4, before_a100) == (est.goodput(t4),
                                            est.goodput(a100))

    def test_bootstrapped_entries_invalidated_by_any_fit_change(self):
        """Multi-GPU estimates without own multi-GPU experience read *every*
        type's fit (Equation 1 picks the reference type), so a fit change
        on any type must invalidate them."""
        est = make_estimator()
        est.profile_initial()
        multi_t4 = Configuration(1, 4, "t4")
        before = est.goodput(multi_t4)
        est.cache_hits = est.cache_misses = 0
        # rtx multi-GPU data arrives: t4's 4-GPU estimate now bootstraps
        # from rtx instead of perfect scaling.
        for k in (2, 4):
            est.add_observation(true_observation("bert", "rtx", 1, k, 16))
        after = est.goodput(multi_t4)
        assert est.cache_misses == 1 and est.cache_hits == 0
        assert after != before

    def test_unchanged_fit_keeps_every_entry_warm(self):
        """A running job re-reports the iteration time it reported before
        (zero observation noise): the refits reproduce the stored fits bit
        for bit, so no entry — own-fit or bootstrapped — is evicted."""
        est = make_estimator()
        est.profile_initial()
        rtx_obs = true_observation("bert", "rtx", 1, 2, 16)
        est.add_observation(rtx_obs)
        configs = [Configuration(1, k, t) for t in TYPES for k in (1, 2, 4)]
        before = est.goodput_batch(configs)
        est.cache_hits = est.cache_misses = 0
        epochs = (est._obs_epoch,
                  [est._types[t].epoch for t in TYPES])
        profiled = est._types["t4"].observations[0]
        for obs in (rtx_obs, profiled):
            assert est.add_observation(obs)
        assert est.goodput_batch(configs).tolist() == before.tolist()
        assert est.cache_misses == 0
        assert est.cache_hits == len(configs)
        assert (est._obs_epoch,
                [est._types[t].epoch for t in TYPES]) == epochs

    def test_lazy_refit_on_other_type_invalidates_bootstrap_entry(self):
        """The bootstrapped t4 entry reads rtx's fit, which is refitted
        lazily.  Querying t4 first — before anything else touches rtx —
        must still see the rtx fit change, miss, and match a fresh
        estimator fed the same evidence."""
        est = make_estimator()
        est.profile_initial()
        multi_t4 = Configuration(1, 4, "t4")
        est.goodput(multi_t4)
        est.cache_hits = est.cache_misses = 0
        observations = [true_observation("bert", "rtx", 1, k, 16)
                        for k in (2, 4)]
        for obs in observations:
            est.add_observation(obs)
        after = est.goodput(multi_t4)
        assert est.cache_misses == 1 and est.cache_hits == 0
        fresh = make_estimator()
        fresh.profile_initial()
        for obs in observations:
            fresh.add_observation(obs)
        assert after == fresh.goodput(multi_t4)

    def test_oracle_cache_survives_observations(self):
        est = make_estimator(ProfilingMode.ORACLE)
        config = Configuration(1, 4, "a100")
        est.goodput(config)
        est.cache_hits = est.cache_misses = 0
        est.add_observation(true_observation("bert", "a100", 1, 4, 16))
        est.goodput(config)
        assert est.cache_hits == 1 and est.cache_misses == 0

    def test_gradient_stats_change_invalidates_everything(self):
        est = make_estimator(ProfilingMode.NO_PROF)
        config = Configuration(1, 1, "t4")
        est.goodput(config)
        true_phi = profiles.true_efficiency_params("bert").grad_noise_scale
        est.update_gradient_stats(true_phi * 3)
        est.cache_hits = est.cache_misses = 0
        est.goodput(config)
        assert est.cache_misses == 1

    def test_steady_state_hit_rate_positive(self):
        """A running job re-evaluated across consecutive rounds with no new
        evidence answers from cache: the acceptance criterion is a strictly
        positive hit rate in steady state."""
        est = make_estimator()
        est.profile_initial()
        configs = [Configuration(1, k, t) for t in TYPES for k in (1, 2, 4)]
        for config in configs:  # round 1: cold
            est.goodput(config)
        est.cache_hits = est.cache_misses = 0
        for _ in range(3):  # rounds 2-4: steady state
            for config in configs:
                est.goodput(config)
            # converged noise-scale reports must not evict anything
            est.update_gradient_stats(
                est.efficiency_model.params.grad_noise_scale)
        assert est.cache_misses == 0
        assert est.cache_hit_rate == 1.0


class TestMemoryKnowledge:
    def test_max_local_bsz_capped_by_job_max(self):
        profile = profiles.model_profile("resnet18")
        constraints = JobConstraints(min_bsz=profile.min_bsz, max_bsz=256)
        est = JobPerfEstimator("resnet18", constraints, TYPES)
        assert est.max_local_bsz("a100") == 256

    def test_max_local_bsz_follows_memory(self):
        est = make_estimator()
        assert est.max_local_bsz("a100") > est.max_local_bsz("rtx")
