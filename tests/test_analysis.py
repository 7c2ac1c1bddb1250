"""Tests for the analysis helpers: rendering and experiment drivers."""

from repro.analysis import (BENCH_SCALE, FULL_SCALE, ExperimentScale,
                            compare_on_trace, format_series, format_table,
                            run_once, sample_trace)
from repro.cluster import presets
from repro.schedulers import SiaScheduler


class TestRender:
    def test_table_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 100, "bb": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_empty_table(self):
        assert format_table([]) == "(empty table)"

    def test_series(self):
        text = format_series([(1.0, 2.0), (3.0, 4.0)], x_label="x",
                             y_label="y")
        assert "1.000" in text and "4.000" in text


class TestScales:
    def test_bench_scale_is_smaller(self):
        assert BENCH_SCALE.work < FULL_SCALE.work
        assert BENCH_SCALE.window < FULL_SCALE.window

    def test_sample_trace_scaled_counts(self):
        trace = sample_trace("philly", seed=0, scale=BENCH_SCALE)
        assert trace.num_jobs == 80  # half the paper's 160
        trace_full = sample_trace("philly", seed=0, scale=FULL_SCALE)
        assert trace_full.num_jobs == 160

    def test_sample_trace_window_scaled(self):
        trace = sample_trace("helios", seed=0, scale=BENCH_SCALE)
        assert max(j.submit_time for j in trace.jobs) <= 2 * 3600.0


class TestDrivers:
    def test_run_once(self):
        scale = ExperimentScale(work=0.05, window=0.05, jobs=0.05)
        trace = sample_trace("philly", seed=0, scale=scale)
        result = run_once(presets.heterogeneous(), SiaScheduler(),
                          trace.jobs, scale=scale)
        assert result.scheduler_name == "sia"
        assert len(result.jobs) == trace.num_jobs

    def test_compare_on_trace_runs_both_families(self):
        scale = ExperimentScale(work=0.05, window=0.05, jobs=0.05)
        trace = sample_trace("philly", seed=1, scale=scale)
        outcome = compare_on_trace(presets.heterogeneous(), trace,
                                   scale=scale)
        assert set(outcome.results) == {"sia", "pollux", "gavel"}
        summaries = outcome.summaries()
        assert len(summaries) == 3
        assert all(s.num_jobs == trace.num_jobs for s in summaries.values())
        # Rigid schedulers saw TunedJobs, adaptive saw the raw trace.
        assert outcome.jobs_used["gavel"] is not outcome.jobs_used["sia"]
