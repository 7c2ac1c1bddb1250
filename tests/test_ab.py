"""``benchmarks/perf/ab.py``'s summary, on canned ``bench.py`` output: no
bench subprocess runs here."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BETTER = {"decide_ms_p50": "lower", "rounds_per_s": "higher"}


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
    return importlib.import_module("ab")


def output(digest: str = "d1", correct: bool = True, **metrics) -> str:
    """A ``bench.py`` output: a table line, the report line and the
    result line."""
    report = {"workload": "sia-scale1024", "seed": 1, "digest": digest}
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value, "unit": "ms"}
                          for name, value in metrics.items()}}
    return ("decide_ms_p50   1.0 ms\n" + "report: " + json.dumps(report)
            + "\n" + json.dumps(result) + "\n")


def pairs(refs, news, **kwargs):
    return [(output(decide_ms_p50=r, rounds_per_s=1000 / r),
             output(decide_ms_p50=n, rounds_per_s=1000 / n, **kwargs))
            for r, n in zip(refs, news)]


class TestSummary:
    def test_medians_delta_and_iqr(self, ab):
        rows, crashes, differ = ab.summarize(
            pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 1.5, 2.0, 2.5]),
            BETTER)
        assert not crashes and not differ
        row = rows[0]
        assert row["metric"] == "decide_ms_p50"
        assert (row["ref"], row["new"]) == (3.0, 1.5)
        assert row["delta"] == pytest.approx(-0.5)
        # Inclusive quartiles of 1..5 are 2 and 4: IQR 2 over median 3.
        assert row["iqr"] == pytest.approx(2 / 3)
        assert (row["won"], row["pairs"]) == (5, 5)

    def test_pairs_won_follow_the_direction_and_ties_count_for_neither(
            self, ab):
        rows, _, _ = ab.summarize(pairs([1.0, 1.0, 1.0, 1.0],
                                        [0.9, 1.0, 1.1, 0.8]), BETTER)
        decide, rate = rows
        assert (decide["won"], decide["pairs"]) == (2, 4)
        assert rate["metric"] == "rounds_per_s" and rate["won"] == 2
        lost = ab.summarize(pairs([1.0], [1.0]), BETTER)[0][0]
        assert lost["won"] == 0 and lost["iqr"] == 0.0

    def test_format_prints_every_column(self, ab):
        rows, _, _ = ab.summarize(pairs([2.0, 2.0], [1.0, 1.0]), BETTER)
        header, decide, _ = ab.format_rows(rows)
        assert header.split() == ["metric", "ref", "new", "delta", "won",
                                  "ref", "IQR"]
        assert decide.split() == ["decide_ms_p50", "2", "1", "-50.0%",
                                  "2/2", "0.0%"]


class TestExitCode:
    def test_equal_digests_pass(self, ab):
        _, crashes, differ = ab.summarize(pairs([1.0], [0.5]), BETTER)
        assert ab.exit_code(crashes, differ, False) == 0

    def test_digest_mismatch_fails_unless_decisions_may_move(self, ab):
        _, crashes, differ = ab.summarize(pairs([1.0, 1.0], [0.5, 0.5],
                                                digest="d2"), BETTER)
        assert differ and not crashes
        assert ab.exit_code(crashes, differ, False) == 1
        assert ab.exit_code(crashes, differ, True) == 0

    def test_a_crash_fails_even_when_decisions_may_move(self, ab):
        crashed = [(output(decide_ms_p50=1.0), "Traceback ...\n"),
                   (output(decide_ms_p50=1.0),
                    output(correct=False, decide_ms_p50=1.0))]
        rows, crashes, differ = ab.summarize(crashed, BETTER)
        assert len(crashes) == 2 and not differ
        assert rows == []
        assert ab.exit_code(crashes, differ, True) == 1

    def test_a_metric_that_lost_every_pair_past_the_floor_exits_3(
            self, ab):
        """Exit 3 needs every pair of at least three lost and the median
        past the A/A floor, in the metric's own direction; a crash or a
        digest mismatch still exits 1."""
        def code(refs, news, **kwargs):
            rows, crashes, differ = ab.summarize(pairs(refs, news, **kwargs),
                                                 BETTER)
            return ab.exit_code(crashes, differ, False, ab.regressions(rows))

        # decide_ms_p50 +5% and rounds_per_s -4.8%: both lost every pair.
        rows = ab.summarize(pairs([1.0, 1.0, 1.0], [1.05, 1.05, 1.05]),
                            BETTER)[0]
        assert ab.regressions(rows) == ["decide_ms_p50", "rounds_per_s"]
        assert code([1.0, 1.0, 1.0], [1.05, 1.05, 1.05]) == 3
        # Within the floor, one pair won or tied, or faster: no exit 3.
        assert code([1.0, 1.0, 1.0], [1.02, 1.02, 1.02]) == 0
        assert code([1.0, 1.0, 1.0], [1.1, 1.1, 0.9]) == 0
        assert code([1.0, 1.0, 1.0], [1.1, 1.1, 1.0]) == 0
        assert code([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]) == 0
        assert code([1.0, 1.0, 1.0], [1.1, 1.1, 1.1], digest="d2") == 1
        # One or two lost pairs are a coin toss (CI's A/A smoke runs one).
        assert code([1.0, 1.0], [1.5, 1.5]) == 0
        assert ab.AA_FLOOR == 0.03 and ab.REGRESSION_PAIRS == 3

    def test_directions_come_from_the_benchmark_spec(self, ab):
        better = ab.better_directions()
        assert better["rounds_per_s"] == "higher"
        assert better["decide_ms_p50"] == "lower"
