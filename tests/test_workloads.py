"""Tests for trace generation and TunedJobs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import presets
from repro.core.types import AdaptivityMode
from repro.perf import profiles
from repro.workloads import (HELIOS, NEWTRACE, PHILLY, generate_trace,
                             helios_trace, newtrace_trace, philly_trace,
                             trace_by_name, tuned_jobs, with_adaptivity_mix)
from repro.workloads.trace import TraceSpec
from repro.workloads.tuning import EFFICIENCY_BAND, tune_job
import numpy as np


class TestSpecs:
    def test_philly_is_short_job_heavy(self):
        assert PHILLY.category_mix["S"] > 0.6

    def test_helios_heavier_than_philly(self):
        """Helios jobs request more GPUs and run longer (Section 4.1)."""
        philly_long = PHILLY.category_mix["L"] + PHILLY.category_mix["XL"]
        helios_long = HELIOS.category_mix["L"] + HELIOS.category_mix["XL"]
        assert helios_long > philly_long

    def test_newtrace_is_48h_bursty(self):
        assert NEWTRACE.window_hours == 48.0
        assert NEWTRACE.burst_probability > 0
        assert NEWTRACE.diurnal_amplitude > 0

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TraceSpec("bad", {"S": 0.5})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            TraceSpec("bad", {"Q": 1.0})


class TestGeneration:
    def test_default_counts_match_paper(self):
        assert philly_trace(seed=0).num_jobs == 160
        assert helios_trace(seed=0).num_jobs == 160
        assert newtrace_trace(seed=0).num_jobs == 960

    def test_deterministic_given_seed(self):
        a = philly_trace(seed=42, num_jobs=30)
        b = philly_trace(seed=42, num_jobs=30)
        assert [(j.job_id, j.submit_time, j.model_name, j.target_samples)
                for j in a.jobs] == \
            [(j.job_id, j.submit_time, j.model_name, j.target_samples)
             for j in b.jobs]

    def test_different_seeds_differ(self):
        a = philly_trace(seed=1, num_jobs=30)
        b = philly_trace(seed=2, num_jobs=30)
        assert [j.model_name for j in a.jobs] != [j.model_name for j in b.jobs]

    def test_arrivals_sorted_within_window(self):
        trace = helios_trace(seed=0, num_jobs=100)
        times = [j.submit_time for j in trace.jobs]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] <= 8 * 3600.0

    def test_window_override(self):
        trace = philly_trace(seed=0, num_jobs=50, window_hours=2.0)
        assert max(j.submit_time for j in trace.jobs) <= 2 * 3600.0

    def test_work_scale_factor(self):
        big = philly_trace(seed=0, num_jobs=20)
        small = philly_trace(seed=0, num_jobs=20, work_scale_factor=0.5)
        for a, b in zip(big.jobs, small.jobs):
            assert b.target_samples == pytest.approx(a.target_samples / 2)

    def test_category_mix_realized(self):
        trace = philly_trace(seed=0, num_jobs=400)
        counts = trace.models_used()
        small = counts.get("resnet18", 0)
        assert small / 400 == pytest.approx(0.72, abs=0.08)

    def test_no_xxl_in_standard_traces(self):
        trace = helios_trace(seed=0, num_jobs=200)
        assert "gpt-2.8b" not in trace.models_used()

    def test_trace_by_name(self):
        assert trace_by_name("philly", seed=0, num_jobs=10).num_jobs == 10
        with pytest.raises(KeyError):
            trace_by_name("borealis")

    def test_invalid_work_scale(self):
        with pytest.raises(ValueError):
            philly_trace(seed=0, work_scale_factor=0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_all_jobs_valid(self, seed):
        trace = generate_trace(PHILLY, seed=seed, num_jobs=25)
        for job in trace.jobs:
            assert job.target_samples > 0
            assert job.max_gpus >= 1
            assert job.adaptivity is AdaptivityMode.ADAPTIVE


class TestAdaptivityMix:
    def test_fractions_realized(self):
        jobs = philly_trace(seed=0, num_jobs=100).jobs
        mixed = with_adaptivity_mix(jobs, strong_fraction=0.3,
                                    rigid_fraction=0.2, seed=1)
        strong = sum(1 for j in mixed
                     if j.adaptivity is AdaptivityMode.STRONG_SCALING)
        rigid = sum(1 for j in mixed if j.adaptivity is AdaptivityMode.RIGID)
        assert strong == 30 and rigid == 20

    def test_work_preserved(self):
        jobs = philly_trace(seed=0, num_jobs=50).jobs
        mixed = with_adaptivity_mix(jobs, rigid_fraction=1.0, seed=1)
        for a, b in zip(jobs, mixed):
            assert b.target_samples == a.target_samples

    def test_invalid_fractions(self):
        jobs = philly_trace(seed=0, num_jobs=10).jobs
        with pytest.raises(ValueError):
            with_adaptivity_mix(jobs, strong_fraction=0.8, rigid_fraction=0.5)

    def test_rigid_jobs_have_pinned_params(self):
        jobs = philly_trace(seed=0, num_jobs=20).jobs
        mixed = with_adaptivity_mix(jobs, rigid_fraction=1.0, seed=1)
        for job in mixed:
            assert job.fixed_num_gpus is not None
            assert job.fixed_batch_size is not None


class TestTunedJobs:
    def test_all_jobs_become_rigid(self):
        cluster = presets.heterogeneous()
        jobs = philly_trace(seed=0, num_jobs=30).jobs
        rigid = tuned_jobs(jobs, cluster, seed=0)
        assert all(j.adaptivity is AdaptivityMode.RIGID for j in rigid)
        assert all(j.fixed_num_gpus >= 1 for j in rigid)

    def test_strong_scaling_mode(self):
        cluster = presets.heterogeneous()
        jobs = philly_trace(seed=0, num_jobs=10).jobs
        strong = tuned_jobs(jobs, cluster, seed=0,
                            mode=AdaptivityMode.STRONG_SCALING)
        assert all(j.adaptivity is AdaptivityMode.STRONG_SCALING
                   for j in strong)
        assert all(j.fixed_num_gpus is None for j in strong)

    def test_adaptive_mode_rejected(self):
        cluster = presets.heterogeneous()
        jobs = philly_trace(seed=0, num_jobs=5).jobs
        with pytest.raises(ValueError):
            tuned_jobs(jobs, cluster, mode=AdaptivityMode.ADAPTIVE)

    def test_work_preserved(self):
        cluster = presets.heterogeneous()
        jobs = philly_trace(seed=0, num_jobs=20).jobs
        rigid = tuned_jobs(jobs, cluster, seed=0)
        for a, b in zip(jobs, rigid):
            assert b.target_samples == a.target_samples

    def test_tuned_pair_in_efficiency_band(self):
        """Tuned (count, bsz) must land in the paper's 50-80% band (when a
        multi-GPU option was chosen)."""
        cluster = presets.heterogeneous()
        rng = np.random.default_rng(0)
        from repro.jobs.job import make_job
        job = make_job("j", "bert", 0.0)
        count, bsz = tune_job(job, cluster, rng)
        if count > 1:
            profile = profiles.model_profile("bert")
            cap = profiles.max_local_bsz("bert", "a100")
            model = profiles.true_goodput_model("bert", "a100")
            base = model.goodput(1, 1, max_local_bsz=cap,
                                 max_total_bsz=profile.max_bsz,
                                 min_total_bsz=profile.min_bsz)
            node_size = cluster.max_node_size("a100")
            nodes = max(1, -(-count // node_size))
            rate = model.goodput(count, nodes, max_local_bsz=cap,
                                 max_total_bsz=profile.max_bsz,
                                 fixed_total_bsz=bsz)
            eff = rate / (base * count)
            assert EFFICIENCY_BAND[0] - 1e-9 <= eff <= EFFICIENCY_BAND[1] + 1e-9

    def test_counts_capped(self):
        cluster = presets.heterogeneous()
        jobs = helios_trace(seed=3, num_jobs=40).jobs
        rigid = tuned_jobs(jobs, cluster, seed=0, max_count=8)
        assert all(j.fixed_num_gpus <= 8 for j in rigid)

    def test_deterministic(self):
        cluster = presets.heterogeneous()
        jobs = philly_trace(seed=0, num_jobs=20).jobs
        a = tuned_jobs(jobs, cluster, seed=7)
        b = tuned_jobs(jobs, cluster, seed=7)
        assert [(j.fixed_num_gpus, j.fixed_batch_size) for j in a] == \
            [(j.fixed_num_gpus, j.fixed_batch_size) for j in b]

    @pytest.mark.parametrize("max_count", [16, 4])
    def test_matches_one_search_per_job(self, max_count):
        """One candidate search per (model, GPU limit) picks what a search
        per job picks: each job still makes its one draw, in trace order."""
        from repro.jobs.job import make_job
        cluster = presets.heterogeneous()
        trace = helios_trace(seed=3, num_jobs=60).jobs
        # Trace jobs of one model share a GPU limit; vary it too.
        jobs = [make_job(f"m{k}", job.model_name, job.submit_time,
                         max_gpus=(1, 2, 4, 8, 16)[k % 5])
                for k, job in enumerate(trace)]
        rng = np.random.default_rng(5)
        reference = [tune_job(job, cluster, rng, max_count=max_count)
                     for job in jobs]
        rigid = tuned_jobs(jobs, cluster, seed=5, max_count=max_count)
        assert [(j.fixed_num_gpus, j.fixed_batch_size)
                for j in rigid] == reference
