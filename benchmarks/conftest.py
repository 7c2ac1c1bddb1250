"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure from the paper's evaluation:
it runs the (scaled-down) experiment once inside pytest-benchmark, prints
the same rows/series the paper reports, writes them to
``benchmarks/results/<name>.txt``, and asserts the paper's qualitative
shape (who wins, rough factors, crossovers).

The committed ``results/*.txt`` hold only seeded simulation outputs, so a
rerun must reproduce them byte for byte (CI checks this with
``git diff --exit-code benchmarks/results/``).  Wall-clock tables differ
on every run; they go to the git-ignored ``results/wall_clock/``.

Scale: benches default to quarter-ish scale so the whole harness finishes
in minutes.  Set ``REPRO_BENCH_SCALE=full`` for the paper's trace sizes
(much slower).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"
WALL_CLOCK_DIR = RESULTS_DIR / "wall_clock"

#: default bench scale: 1/5 work, tight submission window, ~1/3 of the
#: paper's job count — tuned to reproduce the paper's contention levels
#: (avg ~7 jobs competing) while keeping each simulation under a minute.
SMALL = ExperimentScale(work=0.2, window=0.1, jobs=0.3, max_hours=100.0)
#: newTrace is 6x longer; shrink it further so the bench stays minutes.
SMALL_NEWTRACE = ExperimentScale(work=0.15, window=0.05, jobs=0.125,
                                 max_hours=100.0)
FULL = ExperimentScale(work=1.0, window=1.0, jobs=1.0, max_hours=2000.0)


def bench_scale() -> ExperimentScale:
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else SMALL


def newtrace_scale() -> ExperimentScale:
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" \
        else SMALL_NEWTRACE


def emit(name: str, text: str, *, wall_clock: bool = False) -> None:
    """Print a rendered table/series and persist it under results/, or
    under results/wall_clock/ when it reports wall-clock time."""
    directory = WALL_CLOCK_DIR if wall_clock else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def simulated_columns(row: dict) -> dict:
    """A ``SummaryMetrics.as_row()`` without its wall-clock column."""
    return {k: v for k, v in row.items() if k != "median_solve_s"}


def run_once_benchmarked(benchmark, fn):
    """Execute one expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
