"""Counterfactual replay: fork semantics, identity oracle, RunDiff artifacts."""

import pytest

from repro import io
from repro.analysis.explain import explain_job
from repro.analysis.replay import build_run_spec, replay, simulator_from_spec
from repro.analysis.report import build_report
from repro.obs.diff import (AllocDelta, DivergencePoint, MetricDelta,
                            RoundDelta, aligned_ledger_deltas,
                            compare_runs, fault_recovery_seconds)
from repro.obs.export import run_diff_markdown
from repro.obs.ledger import GoodputLedger
from repro.sim.checkpoint import CheckpointConfig
from repro.workloads.generators import trace_by_name


def _spec(scheduler="sia", **kw):
    trace = trace_by_name("philly", seed=3, num_jobs=6,
                          work_scale_factor=0.05)
    defaults = dict(scheduler=scheduler, cluster="heterogeneous",
                    jobs=trace.jobs, seed=3,
                    scheduler_options={"round_duration": 60.0})
    defaults.update(kw)
    return build_run_spec(**defaults)


@pytest.fixture(scope="module")
def base_spec():
    return _spec()


@pytest.fixture(scope="module")
def base_result(base_spec):
    result = simulator_from_spec(base_spec).run()
    result.run_spec = base_spec
    return result


class TestIdentity:
    def test_zero_override_fork_is_bit_identical(self, base_result):
        for at_round in (0, 3, len(base_result.rounds) - 1):
            outcome = replay(base_result, at_round)
            assert outcome.diff.identical, \
                (at_round, outcome.diff.mismatches[:5])
            assert not outcome.diff.round_deltas
            assert outcome.diff.divergence is None

    def test_identity_survives_json_round_trip(self, base_result, tmp_path):
        path = tmp_path / "run.json"
        io.save_result(base_result, path)
        loaded = io.load_result(path)
        assert loaded.run_spec == base_result.run_spec
        outcome = replay(loaded, 4)
        assert outcome.diff.identical, outcome.diff.mismatches[:5]

    def test_identity_from_checkpoint_dir(self, base_spec, base_result,
                                          tmp_path):
        sim = simulator_from_spec(base_spec)
        sim.config.checkpoint = CheckpointConfig(directory=tmp_path,
                                                 every_rounds=3, keep=0)
        sim.run()
        outcome = replay(base_result, 7, checkpoint_dir=tmp_path)
        assert outcome.diff.identical, outcome.diff.mismatches[:5]

    def test_fork_past_end_rejected(self, base_result):
        with pytest.raises(ValueError, match="past the base run"):
            replay(base_result, len(base_result.rounds))

    def test_missing_run_spec_rejected(self, base_spec):
        bare = simulator_from_spec(base_spec).run()
        assert bare.run_spec is None
        with pytest.raises(ValueError, match="run_spec"):
            replay(bare, 2)

    def test_unknown_scheduler_option_rejected_at_build(self):
        with pytest.raises(ValueError, match=r"unknown scheduler options: "
                                             r"\['solve_budget'\]"):
            _spec(scheduler_options={"round_duration": 60.0,
                                     "solve_budget": 5.0})

    def test_unknown_scheduler_option_rejected_at_fork(self, base_spec):
        """A spec saved by an older build, carrying a scheduler option
        this build no longer has, fails with the option's name."""
        old = {**base_spec, "scheduler_options": {
            **base_spec["scheduler_options"], "solve_budget": 5.0}}
        with pytest.raises(ValueError, match=r"unknown scheduler options: "
                                             r"\['solve_budget'\]"):
            simulator_from_spec(old)


class TestOverrides:
    def test_policy_swap_diverges_and_diffs(self, base_result):
        outcome = replay(base_result, 4, policy="gavel")
        diff = outcome.diff
        assert outcome.fork.scheduler_name == "gavel"
        assert diff.fork_scheduler == "gavel"
        assert not diff.identical
        assert diff.divergence is not None
        assert diff.divergence.round_index >= 4
        assert diff.round_deltas
        kinds = {c.kind for rnd in diff.round_deltas for c in rnd.changes}
        assert kinds  # classified with the audit taxonomy
        # Shared history stays shared: no delta before the fork round.
        assert all(r.round_index >= 4 for r in diff.round_deltas)
        names = [m.name for m in diff.metrics]
        for required in ("avg_jct_hours", "p99_jct_hours",
                         "p99_queue_wait_hours", "avg_round_goodput",
                         "migrations", "preemptions",
                         "fault_recovery_hours"):
            assert required in names

    def test_policy_swap_keeps_round_cadence(self, base_result):
        # gavel's own default cadence is 360s; the fork must inherit the
        # base run's 60s quantum.  (Absolute times can still drift once the
        # futures diverge — idle-skip jumps depend on the schedule.)
        outcome = replay(base_result, 4, policy="gavel")
        base_times = [r.time for r in base_result.rounds]
        fork_times = [r.time for r in outcome.fork.rounds]
        assert fork_times[:4] == base_times[:4]
        steps = {b - a for a, b in zip(fork_times, fork_times[1:])}
        assert all(step % 60.0 == 0 for step in steps)
        assert 60.0 in steps

    def test_pollux_swap_rejected(self, base_result):
        with pytest.raises(ValueError, match="pollux"):
            replay(base_result, 4, policy="pollux")


class TestRunDiffArtifact:
    @pytest.fixture(scope="class")
    def diff(self, base_result):
        return replay(base_result, 4, policy="gavel").diff

    def test_io_round_trip_is_exact(self, diff, tmp_path):
        path = tmp_path / "diff.json"
        io.save_run_diff(diff, path)
        loaded = io.load_run_diff(path)
        assert loaded == diff
        assert loaded.to_dict() == diff.to_dict()

    def test_markdown_rendering(self, diff):
        text = run_diff_markdown(diff)
        assert "Counterfactual diff" in text
        assert "`policy=gavel`" in text
        assert "Divergence at round" in text

    def test_report_counterfactual_section(self, base_result, diff):
        report = build_report([base_result], diffs=[diff])
        assert "Counterfactual diff" in report
        assert "| avg_jct_hours |" in report

    def test_job_jcts_are_seconds(self, base_result, diff):
        """``job_deltas`` JCTs share the queue waits' unit: seconds, as
        ``JobRecord.jct()`` reports them."""
        finished = [j for j in base_result.jobs if j.completed]
        assert finished
        for record in finished:
            assert diff.job_deltas[record.job_id]["base_jct"] == \
                record.jct()

    def test_job_changes_lookup(self, diff):
        jobs = {c.job_id for rnd in diff.round_deltas
                for c in rnd.changes}
        job_id = sorted(jobs)[0]
        changes = diff.job_changes(job_id)
        assert changes
        assert all(c.job_id == job_id for c in changes.values())


class TestDiffAligner:
    def test_compare_identical_runs_is_empty(self, base_result):
        deltas, divergence = compare_runs(base_result, base_result)
        assert deltas == [] and divergence is None

    def test_one_sided_tail_rounds(self, base_result, base_spec):
        truncated = simulator_from_spec(base_spec)
        state = truncated.run_to_round(len(base_result.rounds) - 2)
        deltas, divergence = compare_runs(base_result, state.result)
        assert divergence is not None
        assert any(d.only_in == "base" for d in deltas)

    def test_aligned_ledger_deltas_share_axis(self, base_result):
        ledger = GoodputLedger.from_result(base_result)
        rows = aligned_ledger_deltas(ledger, ledger)
        assert [r[0] for r in rows] == ledger.rounds()
        assert all(b == f for _, b, f in rows)

    def test_fault_recovery_seconds(self):
        from repro.obs.audit import (CAUSE_FAULT, PREEMPT,
                                     RESTART_AFTER_FAULT, AllocationEvent)
        events = [
            AllocationEvent(kind=PREEMPT, time=100.0, job_id="a",
                            cause=CAUSE_FAULT),
            AllocationEvent(kind=RESTART_AFTER_FAULT, time=160.0,
                            job_id="a"),
            AllocationEvent(kind=PREEMPT, time=200.0, job_id="b"),
        ]
        assert fault_recovery_seconds(events) == 60.0

    def test_dict_round_trips(self):
        delta = RoundDelta(round_index=3, time=180.0, changes=(
            AllocDelta(job_id="a", base=("t4", 2), fork=None,
                       kind="preempt"),), only_in="")
        assert RoundDelta.from_dict(delta.to_dict()) == delta
        point = DivergencePoint(round_index=3, time=180.0, jobs=("a",),
                                reason="because")
        assert DivergencePoint.from_dict(point.to_dict()) == point
        metric = MetricDelta(name="x", base=1.0, fork=2.5)
        assert MetricDelta.from_dict(metric.to_dict()) == metric
        assert metric.delta == 1.5


class TestExplainCounterfactual:
    def test_timeline_gains_fork_column(self, base_result):
        diff = replay(base_result, 4, policy="gavel").diff
        jobs = {c.job_id for rnd in diff.round_deltas for c in rnd.changes}
        job_id = sorted(jobs)[0]
        text = explain_job(base_result, job_id, counterfactual=diff)
        assert "counterfactual: forked at round 4 under gavel" in text
        assert "fork" in text.splitlines()[7] or "fork" in text
        assert "diverged at round" in text

    def test_identity_annotation(self, base_result):
        diff = replay(base_result, 4).diff
        job_id = base_result.jobs[0].job_id
        text = explain_job(base_result, job_id, counterfactual=diff)
        assert "reproduced this run exactly" in text


class TestCLI:
    def test_replay_end_to_end(self, tmp_path):
        from repro.cli import main
        run = tmp_path / "run.json"
        diff_path = tmp_path / "diff.json"
        assert main(["run", "--scheduler", "sia", "--trace-name", "philly",
                     "--num-jobs", "5", "--work-scale", "0.05",
                     "--seed", "3", "--round-duration", "60",
                     "--out", str(run)]) == 0
        assert main(["replay", str(run), "--at-round", "3"]) == 0
        assert main(["replay", str(run), "--at-round", "3",
                     "--policy", "gavel",
                     "--diff-out", str(diff_path)]) == 0
        diff = io.load_run_diff(diff_path)
        assert diff.fork_scheduler == "gavel"
        job_id = io.load_result(run).jobs[0].job_id
        assert main(["explain", str(run), "--job", job_id,
                     "--counterfactual", str(diff_path)]) == 0
        report = tmp_path / "report.md"
        assert main(["report", str(run), "--diff", str(diff_path),
                     "--out", str(report)]) == 0
        assert "Counterfactual diff" in report.read_text()

    def test_replay_of_unknown_scheduler_option_exits_cleanly(
            self, base_result, tmp_path):
        from repro.cli import main
        spec = base_result.run_spec
        base_result.run_spec = {**spec, "scheduler_options": {
            **spec["scheduler_options"], "solve_budget": 5.0}}
        run = tmp_path / "run.json"
        try:
            io.save_result(base_result, run)
        finally:
            base_result.run_spec = spec
        with pytest.raises(SystemExit,
                           match="unknown scheduler options"):
            main(["replay", str(run), "--at-round", "2"])

    def test_replay_unknown_policy_exits_cleanly(self, tmp_path):
        from repro.cli import main
        run = tmp_path / "run.json"
        main(["run", "--trace-name", "philly", "--num-jobs", "4",
              "--work-scale", "0.05", "--round-duration", "60",
              "--out", str(run)])
        with pytest.raises(SystemExit):
            main(["replay", str(run), "--at-round", "2",
                  "--policy", "nope"])


class TestExplainNeverAdmitted:
    def test_clean_header_for_never_admitted_job(self):
        # A job submitted past the simulation cap gets a JobRecord but no
        # allocation rounds; explain must say so instead of printing a
        # garbled empty table.
        from repro.jobs.job import make_job
        jobs = [make_job("early", "resnet18", submit_time=0.0,
                         work_scale=0.02),
                make_job("too-late", "resnet18", submit_time=9e5,
                         work_scale=0.02)]
        spec = build_run_spec(scheduler="sia", cluster="heterogeneous",
                              jobs=jobs, seed=3, max_hours=1.0,
                              scheduler_options={"round_duration": 60.0})
        result = simulator_from_spec(spec).run()
        record = result.job("too-late")
        assert record.first_start is None
        text = explain_job(result, "too-late")
        assert "queued, never admitted" in text
        assert "no per-round decision records" not in text
