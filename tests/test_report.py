"""Tests for the markdown report generator and ASCII charts."""

import pytest

from repro.analysis.render import format_bars
from repro.analysis.report import build_report
from repro.cli import main
from repro.cluster import presets
from repro.schedulers import GavelScheduler, SiaScheduler
from repro.sim import simulate
from repro.workloads import philly_trace, tuned_jobs


@pytest.fixture(scope="module")
def setup():
    cluster = presets.heterogeneous()
    trace = philly_trace(seed=0, num_jobs=10, work_scale_factor=0.08,
                         window_hours=0.3)
    rigid = tuned_jobs(trace.jobs, cluster, seed=0)
    sia = simulate(cluster, SiaScheduler(), trace.jobs, max_hours=50)
    gavel = simulate(cluster, GavelScheduler(), rigid, max_hours=50)
    return cluster, trace, sia, gavel


class TestFormatBars:
    def test_peak_gets_full_width(self):
        text = format_bars([("a", 1.0), ("b", 2.0)], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_zero_values_get_no_bar(self):
        text = format_bars([("a", 0.0), ("b", 1.0)])
        assert "#" not in text.splitlines()[0]

    def test_empty(self):
        assert format_bars([]) == "(no data)"

    def test_title(self):
        assert format_bars([("x", 1.0)], title="T").startswith("T\n")


class TestBuildReport:
    def test_single_result_sections(self, setup):
        cluster, trace, sia, _ = setup
        text = build_report([sia], jobs=trace.jobs, cluster=cluster)
        for token in ("# Simulation report", "Scheduler comparison",
                      "JCT distribution", "GPU-hours per job",
                      "Finish-time fairness", "GPU occupancy"):
            assert token in text

    def test_multi_result_comparison(self, setup):
        _, _, sia, gavel = setup
        text = build_report([sia, gavel], title="Head to head")
        assert "# Head to head" in text
        assert "| sia |" in text
        assert "| gavel |" in text

    def test_without_jobs_skips_fairness(self, setup):
        _, _, sia, _ = setup
        text = build_report([sia])
        assert "Finish-time fairness" not in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([])


class TestReportCli:
    def test_report_from_saved_results(self, setup, tmp_path, capsys):
        from repro import io
        _, _, sia, gavel = setup
        a, b = tmp_path / "sia.json", tmp_path / "gavel.json"
        io.save_result(sia, a)
        io.save_result(gavel, b)
        out = tmp_path / "report.md"
        assert main(["report", str(a), str(b), "--title", "CLI report",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# CLI report" in text
        assert "gavel" in text
