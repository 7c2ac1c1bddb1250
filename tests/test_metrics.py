"""Tests for JCT statistics, fairness (Equation 6), and utilization."""

import math

import pytest

from repro.cluster import presets
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import make_job
from repro.metrics import (average_utilization, fairness_metrics, ftf_ratio,
                           gpu_hours_by_model, isolated_jct, percentile,
                           summarize)
from repro.schedulers import SiaScheduler
from repro.sim import simulate
from repro.sim.telemetry import JobRecord, RoundRecord, SimulationResult


@pytest.fixture(scope="module")
def sample_result():
    cluster = presets.heterogeneous()
    jobs = [make_job(f"j{i}", "resnet18", i * 120.0, work_scale=0.05)
            for i in range(4)]
    result = simulate(cluster, SiaScheduler(), jobs)
    return cluster, jobs, result


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_p99_tail(self):
        values = list(range(100))
        assert percentile(values, 99) > percentile(values, 50)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_empty_raises_for_any_q(self):
        for q in (0, 50, 100):
            with pytest.raises(ValueError):
                percentile([], q)

    def test_single_element_is_every_percentile(self):
        for q in (0, 25, 50, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_extreme_quantiles_are_min_and_max(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestSummarize:
    def test_all_fields_populated(self, sample_result):
        _, _, result = sample_result
        summary = summarize(result)
        assert summary.num_jobs == 4
        assert summary.completed_jobs == 4
        assert summary.avg_jct_hours > 0
        assert summary.p99_jct_hours >= summary.avg_jct_hours
        assert summary.makespan_hours > 0
        assert summary.avg_gpu_hours_per_job > 0
        assert summary.max_contention >= 1

    def test_as_row_is_serializable(self, sample_result):
        _, _, result = sample_result
        row = summarize(result).as_row()
        assert row["scheduler"] == "sia"
        assert isinstance(row["avg_jct_h"], float)


class TestJobRecord:
    def test_jct_requires_horizon_for_censored(self):
        record = JobRecord("j", "bert", "M", "adaptive", 0.0, None, None, 0)
        with pytest.raises(ValueError):
            record.jct()
        assert record.jct(horizon=3600.0) == 3600.0

    def test_total_gpu_seconds_includes_profiling(self):
        record = JobRecord("j", "bert", "M", "adaptive", 0.0, 0.0, 100.0, 0,
                           gpu_seconds={"t4": 50.0},
                           profiling_gpu_seconds=10.0)
        assert record.total_gpu_seconds == 60.0


class TestGpuHoursByModel:
    def test_grouping(self, sample_result):
        _, _, result = sample_result
        by_model = gpu_hours_by_model(result)
        assert "resnet18" in by_model
        assert sum(by_model["resnet18"].values()) > 0


class TestIsolatedJct:
    def test_fair_share_reduces_gpus(self):
        cluster = presets.heterogeneous()
        job = make_job("j", "bert", 0.0)
        lonely = isolated_jct(job, "a100", cluster, avg_contention=1.0)
        crowded = isolated_jct(job, "a100", cluster, avg_contention=16.0)
        assert crowded > lonely

    def test_infeasible_type_is_inf(self):
        cluster = presets.heterogeneous()
        job = make_job("g", "gpt-2.8b", 0.0, hybrid=HybridSpec(), max_gpus=16)
        assert math.isinf(isolated_jct(job, "t4", cluster, 1.0))


class TestFtfRatio:
    def test_uncontended_long_job_is_nearly_fair(self):
        """An uncontended job long enough that ramp-up and restart overheads
        amortize should have a moderate FTF ratio.  (Tiny jobs legitimately
        show large rho: the isolated baseline has no ramp-up or restore
        costs — see test below.)"""
        cluster = presets.heterogeneous()
        job = make_job("solo", "resnet18", 0.0, work_scale=1.0)
        result = simulate(cluster, SiaScheduler(), [job])
        rho = ftf_ratio(job, result.job("solo"), cluster, result.end_time)
        assert rho < 2.5

    def test_tiny_jobs_show_overhead_dominated_rho(self, sample_result):
        """For seconds-long jobs the fixed overheads dominate, so rho is
        well above 1 — the metric is meaningful only at realistic scales."""
        cluster, jobs, result = sample_result
        rho = ftf_ratio(jobs[0], result.job(jobs[0].job_id), cluster,
                        result.end_time)
        assert rho > 1.0

    def test_weights_renormalized_for_infeasible_types(self):
        """A job that can only run on a100/rtx must still get a finite rho."""
        cluster = presets.heterogeneous()
        job = make_job("g", "gpt-2.8b", 0.0, hybrid=HybridSpec(), max_gpus=16)
        record = JobRecord("g", "gpt-2.8b", "XXL", "adaptive", 0.0, 0.0,
                           7200.0, 0, gpu_seconds={"a100": 100.0},
                           avg_contention=1.0)
        rho = ftf_ratio(job, record, cluster, 7200.0)
        assert math.isfinite(rho) and rho > 0

    def test_fairness_metrics_aggregates(self, sample_result):
        cluster, jobs, result = sample_result
        metrics = fairness_metrics(result, jobs, cluster)
        assert len(metrics.ratios) == len(jobs)
        assert metrics.worst_ftf == max(metrics.ratios)
        assert 0.0 <= metrics.unfair_fraction <= 1.0

    def test_unknown_job_rejected(self, sample_result):
        cluster, jobs, result = sample_result
        with pytest.raises(KeyError):
            fairness_metrics(result, jobs[:2], cluster)


class TestUtilization:
    def test_average_utilization_in_unit_interval(self, sample_result):
        cluster, _, result = sample_result
        value = average_utilization(result, cluster)
        assert 0.0 < value <= 1.0

    def test_empty_result_zero_utilization(self):
        cluster = presets.heterogeneous()
        empty = SimulationResult("sia", cluster.describe(),
                                 rounds=[RoundRecord(0.0, 0.0)])
        assert average_utilization(empty, cluster) == 0.0
