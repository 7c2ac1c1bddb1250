"""Cross-module integration tests: the qualitative claims of the paper that
must hold even at reduced scale.

These are slower than unit tests (full simulations) but still seconds each.
"""

import pytest

from repro.analysis import ExperimentScale
from repro.cluster import presets
from repro.core.policy import SiaPolicyParams
from repro.core.types import ProfilingMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.metrics import summarize
from repro.schedulers import (FIFOScheduler, GavelScheduler, PolluxScheduler,
                              SiaScheduler)
from repro.sim import simulate
from repro.workloads import helios_trace, philly_trace, tuned_jobs

SCALE = ExperimentScale(work=0.2, window=0.15, jobs=0.25, max_hours=100.0)


@pytest.fixture(scope="module")
def loaded_comparison():
    """One moderately-loaded heterogeneous run of Sia, Pollux, Gavel."""
    cluster = presets.heterogeneous()
    trace = helios_trace(seed=11, num_jobs=50, work_scale_factor=0.25,
                         window_hours=1.0)
    rigid = tuned_jobs(trace.jobs, cluster, seed=11)
    results = {
        "sia": simulate(cluster, SiaScheduler(), trace.jobs, max_hours=100),
        "pollux": simulate(cluster, PolluxScheduler(), trace.jobs,
                           max_hours=100),
        "gavel": simulate(cluster, GavelScheduler(), rigid, max_hours=100),
    }
    return cluster, trace, {k: summarize(v) for k, v in results.items()}, results


class TestHeadlineOrdering:
    def test_sia_beats_pollux_and_gavel_on_avg_jct(self, loaded_comparison):
        """Table 3's headline: Sia < Pollux < Gavel on average JCT."""
        _, _, summaries, _ = loaded_comparison
        assert summaries["sia"].avg_jct_hours < summaries["pollux"].avg_jct_hours
        assert summaries["pollux"].avg_jct_hours < summaries["gavel"].avg_jct_hours

    def test_sia_uses_fewer_gpu_hours(self, loaded_comparison):
        _, _, summaries, _ = loaded_comparison
        assert summaries["sia"].avg_gpu_hours_per_job < \
            summaries["gavel"].avg_gpu_hours_per_job

    def test_pollux_restarts_more_than_sia(self, loaded_comparison):
        """Table 3: Pollux's 1-GPU-step optimization restarts jobs roughly
        twice as often as Sia."""
        _, _, summaries, _ = loaded_comparison
        assert summaries["pollux"].avg_restarts > summaries["sia"].avg_restarts

    def test_all_jobs_complete(self, loaded_comparison):
        _, _, summaries, _ = loaded_comparison
        for summary in summaries.values():
            assert summary.completed_jobs == summary.num_jobs


class TestSiaBeatsFifo:
    def test_under_contention(self):
        cluster = presets.heterogeneous()
        trace = philly_trace(seed=5, num_jobs=30, work_scale_factor=0.15,
                             window_hours=0.5)
        rigid = tuned_jobs(trace.jobs, cluster, seed=5)
        sia = summarize(simulate(cluster, SiaScheduler(), trace.jobs,
                                 max_hours=100))
        fifo = summarize(simulate(cluster, FIFOScheduler(), rigid,
                                  max_hours=100))
        assert sia.avg_jct_hours < fifo.avg_jct_hours


class TestHomogeneousParity:
    def test_sia_matches_pollux_on_homogeneous_cluster(self):
        """Table 4: on a homogeneous cluster Sia and Pollux are equals
        (within a modest margin at reduced scale)."""
        cluster = presets.homogeneous()
        trace = philly_trace(seed=7, num_jobs=16, work_scale_factor=1.0,
                             window_hours=1.5)
        sia = summarize(simulate(cluster, SiaScheduler(), trace.jobs,
                                 max_hours=100))
        pollux = summarize(simulate(cluster, PolluxScheduler(), trace.jobs,
                                    max_hours=100))
        assert sia.avg_jct_hours <= 1.3 * pollux.avg_jct_hours


class TestProfilingModes:
    def test_bootstrap_beats_no_prof(self):
        """Section 5.7: Bootstrap ~30% better than No-Prof; Oracle best."""
        cluster = presets.heterogeneous()
        trace = helios_trace(seed=13, num_jobs=24, work_scale_factor=0.15,
                             window_hours=0.75)
        jcts = {}
        for mode in (ProfilingMode.ORACLE, ProfilingMode.BOOTSTRAP,
                     ProfilingMode.NO_PROF):
            result = simulate(cluster, SiaScheduler(), trace.jobs,
                              profiling_mode=mode, max_hours=100)
            jcts[mode] = summarize(result).avg_jct_hours
        assert jcts[ProfilingMode.ORACLE] <= jcts[ProfilingMode.BOOTSTRAP] * 1.15
        assert jcts[ProfilingMode.BOOTSTRAP] <= jcts[ProfilingMode.NO_PROF]


class TestHybridElasticity:
    def test_sia_scales_hybrid_job_with_congestion(self):
        """Section 5.3: Sia scales a GPT job down when load rises and back
        up when it clears."""
        cluster = presets.heterogeneous()
        gpt = make_job("gpt", "gpt-2.8b", 0.0, hybrid=HybridSpec(),
                       max_gpus=16, work_scale=0.05)
        # A burst of BERT jobs arrives mid-run, competing for a100s.
        burst = [make_job(f"b{i}", "bert", 1800.0, work_scale=0.3)
                 for i in range(16)]
        result = simulate(cluster, SiaScheduler(), [gpt, *burst],
                          max_hours=100)
        timeline = result.allocation_timeline("gpt")
        counts = [count for _, _, count in timeline if count > 0]
        assert counts, "GPT job never ran"
        assert max(counts) > min(counts), \
            "GPT allocation never changed despite congestion"
        assert result.job("gpt").completed


class TestAdaptivityRestriction:
    def test_adaptive_beats_strong_scaling_beats_rigid(self):
        """Figure 11's trend: more adaptivity, better average JCT."""
        from repro.workloads import with_adaptivity_mix
        cluster = presets.heterogeneous()
        trace = philly_trace(seed=9, num_jobs=24, work_scale_factor=0.6,
                             window_hours=1.0)
        adaptive = summarize(simulate(
            cluster, SiaScheduler(), trace.jobs, max_hours=100))
        rigid_jobs = with_adaptivity_mix(trace.jobs, rigid_fraction=1.0,
                                         seed=9)
        rigid = summarize(simulate(
            cluster, SiaScheduler(), rigid_jobs, max_hours=100))
        assert adaptive.avg_jct_hours < rigid.avg_jct_hours


class TestSolverAblation:
    def test_greedy_solver_works_but_ilp_no_worse(self):
        cluster = presets.heterogeneous()
        trace = philly_trace(seed=3, num_jobs=16, work_scale_factor=0.1,
                             window_hours=0.5)
        ilp = summarize(simulate(
            cluster, SiaScheduler(), trace.jobs, max_hours=100))
        greedy = summarize(simulate(
            cluster, SiaScheduler(SiaPolicyParams(solver="greedy")),
            trace.jobs, max_hours=100))
        assert ilp.completed_jobs == greedy.completed_jobs
        assert ilp.avg_jct_hours <= 1.25 * greedy.avg_jct_hours
