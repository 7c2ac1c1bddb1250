"""Tests for the command-line interface."""

import pytest

from repro import io
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheduler == "sia"
        assert args.cluster == "heterogeneous"
        assert args.p == -0.5

    def test_unknown_trace_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace-name", "borealis"])


class TestTrace:
    def test_trace_summary(self, capsys):
        assert main(["trace", "--trace-name", "philly", "--seed", "1",
                     "--num-jobs", "12"]) == 0
        assert "12 jobs" in capsys.readouterr().out

    def test_trace_saved_and_reusable(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--trace-name", "helios", "--num-jobs", "6",
                     "--out", str(out)]) == 0
        trace = io.load_trace(out)
        assert trace.num_jobs == 6


class TestRun:
    def test_run_sia_and_save(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["run", "--scheduler", "sia", "--trace-name", "philly",
                     "--num-jobs", "6", "--work-scale", "0.05",
                     "--window-hours", "0.25", "--out", str(out)])
        assert code == 0
        assert "avg_jct_h" in capsys.readouterr().out
        result = io.load_result(out)
        assert result.scheduler_name == "sia"
        assert len(result.jobs) == 6

    def test_run_from_saved_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["trace", "--trace-name", "philly", "--num-jobs", "5",
              "--work-scale", "0.05", "--window-hours", "0.25",
              "--out", str(trace_path)])
        capsys.readouterr()
        assert main(["run", "--scheduler", "gavel",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "gavel" in out

    def test_unknown_scheduler_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheduler", "warp", "--trace-name", "philly",
                  "--num-jobs", "4"])

    def test_log_invariants_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--invariants", "log"])
        assert exc.value.code == 2
        assert "invalid choice: 'log'" in capsys.readouterr().err

    def test_yaml_slo_ruleset_rejected(self, tmp_path):
        """A ruleset file is JSON; YAML fails to parse like any bad file."""
        rules = tmp_path / "rules.yaml"
        rules.write_text("rules:\n  - name: queue-wait\n"
                         "    metric: queue_wait_p99\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trace-name", "philly", "--num-jobs", "2",
                  "--work-scale", "0.05", "--slo", str(rules)])
        assert str(exc.value.code).startswith("bad --slo ruleset")

    def test_run_with_failures(self, capsys):
        code = main(["run", "--scheduler", "sia", "--trace-name", "philly",
                     "--num-jobs", "4", "--work-scale", "0.05",
                     "--window-hours", "0.25", "--failure-rate", "2.0"])
        assert code == 0

    def test_run_checkpoints_and_resumes(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        base = ["--scheduler", "sia", "--trace-name", "philly",
                "--num-jobs", "4", "--work-scale", "0.05",
                "--window-hours", "0.25", "--invariants", "strict"]
        code = main(["run", *base, "--checkpoint-dir", str(ckpt_dir),
                     "--checkpoint-every", "3", "--checkpoint-keep", "0"])
        assert code == 0
        written = list(ckpt_dir.glob("ckpt-*.ckpt"))
        assert written
        capsys.readouterr()
        # resume the finished run from its last checkpoint: replays the
        # tail rounds and reports the same summary table
        code = main(["run", *base, "--resume-from", str(ckpt_dir)])
        assert code == 0
        assert "avg_jct_h" in capsys.readouterr().out


class TestGrayFlags:
    def test_gray_run_writes_health_events(self, tmp_path, capsys):
        out = tmp_path / "gray.json"
        events_path = tmp_path / "health.jsonl"
        code = main(["run", "--scheduler", "sia", "--trace-name", "philly",
                     "--num-jobs", "4", "--work-scale", "0.4",
                     "--profiling-mode", "oracle", "--seed", "4",
                     "--max-hours", "100",
                     "--gray-rate", "20", "--gray-slowdown", "0.3",
                     "--gray-duration", "14400", "--health",
                     "--health-events-out", str(events_path),
                     "--invariants", "strict", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "health:" in printed and "gray_failure" in printed
        result = io.load_result(out)
        assert result.health_counts().get("health.quarantine", 0) > 0
        assert io.load_health_events(events_path) == result.health_timeline()

    def test_gray_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.gray_rate == 0.0
        assert args.placement_fail_prob == 0.0
        assert args.telemetry_corrupt_rate == 0.0
        assert not args.health


class TestChaosCommand:
    def test_chaos_equivalence_exit_code(self, tmp_path, capsys):
        code = main(["chaos", "--trace-name", "philly", "--num-jobs", "4",
                     "--work-scale", "0.05", "--window-hours", "0.25",
                     "--checkpoint-dir", str(tmp_path / "chaos"),
                     "--checkpoint-every", "3", "--kill-round", "5",
                     "--job-crash-rate", "2.0", "--resilient",
                     "--invariants", "strict", "--corrupt-latest"])
        assert code == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_crash_that_never_fires_fails(self, tmp_path, capsys):
        """A kill round past the run's end crashes nothing, so the
        experiment proves nothing: it says so and exits 1."""
        code = main(["chaos", "--trace-name", "philly", "--num-jobs", "6",
                     "--work-scale", "0.05", "--kill-round", "100000",
                     "--checkpoint-dir", str(tmp_path / "chaos")])
        assert code == 1
        captured = capsys.readouterr()
        assert "no crash fired" in captured.out
        assert "the crash never fired" in captured.err

    def test_gray_scenario_exit_code(self, tmp_path, capsys):
        code = main(["chaos", "--scenario", "gray",
                     "--checkpoint-dir", str(tmp_path / "chaos-gray")])
        assert code == 0
        captured = capsys.readouterr()
        assert "EQUIVALENT" in captured.out
        assert "scenario=gray" in captured.err


class TestFlagGroups:
    """Each subcommand takes only the flag groups it acts on."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--ledger-out", "ledger.jsonl"],
        ["chaos", "--out", "run.json"],
        ["chaos", "--trace-out", "trace.json"],
        ["replay", "run.json", "--at-round", "5",
         "--cluster-delta", "+8xa100"],
    ])
    def test_flags_a_subcommand_would_ignore_are_rejected(self, argv,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_records_its_recipe(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", "--scheduler", "gavel", "--trace-name", "philly",
                     "--num-jobs", "3", "--work-scale", "0.05",
                     "--job-crash-rate", "1.5", "--lam", "1.3",
                     "--out", str(out)]) == 0
        spec = io.load_result(out).run_spec
        assert spec["scheduler"] == "gavel"
        assert spec["fault_options"] == {"job_crash_rate": 1.5}
        assert spec["scheduler_options"]["lam"] == 1.3
        # rigid baselines record their TunedJobs, not the raw trace
        assert all(job["fixed_num_gpus"] for job in spec["jobs"])

