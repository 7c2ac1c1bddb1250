"""Experiment drivers and result rendering for the benchmark harness."""

from repro.analysis.experiments import (BENCH_SCALE, FULL_SCALE,
                                        ComparisonResult, ExperimentScale,
                                        adaptive_scheduler_set,
                                        compare_on_trace,
                                        rigid_scheduler_set, run_once,
                                        sample_trace)
from repro.analysis.explain import explain_job
from repro.analysis.render import format_bars, format_series, format_table
from repro.analysis.replay import (ReplayOutcome, build_run_spec,
                                   fork_state, replay, simulator_from_spec)
from repro.analysis.report import build_report, decision_digest_section

__all__ = [
    "BENCH_SCALE", "FULL_SCALE", "ComparisonResult", "ExperimentScale",
    "adaptive_scheduler_set", "compare_on_trace", "rigid_scheduler_set",
    "run_once", "sample_trace",
    "format_bars", "format_series", "format_table",
    "build_report", "decision_digest_section",
    "explain_job",
    "ReplayOutcome", "build_run_spec", "fork_state",
    "replay", "simulator_from_spec",
]
