"""Command-line interface: run reproduction experiments without writing code.

Subcommands::

    python -m repro trace --trace-name helios --seed 0 --out trace.json
    python -m repro run --scheduler sia --cluster heterogeneous \\
                        --trace-name philly --num-jobs 40 --work-scale 0.2
    python -m repro report results/*.json --out report.md
    python -m repro explain result.json --job philly-0017
    python -m repro run ... --checkpoint-dir ckpts --checkpoint-every 25
    python -m repro run ... --resume-from ckpts     # continue a killed run
    python -m repro chaos --trace-name philly --num-jobs 12 --work-scale 0.05
    python -m repro chaos --scenario gray     # gray failures + health defense
    python -m repro run ... --gray-rate 2 --health --health-events-out h.jsonl
    python -m repro run ... --slo rules.json --alerts-out alerts.jsonl
    python -m repro replay result.json --at-round 5 --policy gavel

``run`` and ``chaos`` accept either a saved trace file (``--trace``) or
generator parameters (``--trace-name``/``--seed``/...), the same recipe
flags (scheduler, fault and simulator knobs) and the checkpoint flags.
Each turns its flags into one run spec (:func:`_run_spec`) and builds
every simulator from it with
:func:`repro.analysis.replay.simulator_from_spec`.  ``run`` alone takes
the observability outputs and saves its result with ``--out`` (reloaded
with :mod:`repro.io`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro import io
from repro.analysis.render import format_table
from repro.analysis.replay import build_run_spec, simulator_from_spec
from repro.cluster import presets
from repro.core import fork as forklib
from repro.core.ilp import BACKENDS
from repro.core.types import ProfilingMode
from repro.metrics.jct import summarize
from repro.obs.export import run_digest, write_chrome_trace
from repro.obs.slo import SLOEngine, parse_rules
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              HealthEventStreamObserver, LedgerStreamObserver,
                              PrometheusSnapshotObserver, SLOObserver)
from repro.obs.tracer import Tracer
from repro.schedulers import GavelScheduler
from repro.sim.chaos import run_chaos
from repro.sim.checkpoint import CheckpointConfig
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.invariants import MODES as INVARIANT_MODES
from repro.workloads.generators import SPECS, trace_by_name
from repro.workloads.trace import Trace


def resolve_trace(args: argparse.Namespace) -> Trace:
    if args.trace:
        return io.load_trace(args.trace)
    kwargs = {}
    if args.num_jobs is not None:
        kwargs["num_jobs"] = args.num_jobs
    if args.window_hours is not None:
        kwargs["window_hours"] = args.window_hours
    return trace_by_name(args.trace_name, seed=args.seed,
                         work_scale_factor=args.work_scale, **kwargs)


def _run_spec(args: argparse.Namespace, scheduler: str,
              trace: Trace) -> dict:
    """The recipe one scheduler's run is built from: the recipe flags plus
    the job list that scheduler runs (TunedJobs for the rigid baselines)."""
    jobs = forklib.scheduler_jobs(scheduler, trace.jobs,
                                  presets.by_name(args.cluster), trace.seed)
    return build_run_spec(
        scheduler=scheduler, cluster=args.cluster, jobs=jobs,
        seed=args.seed, profiling_mode=args.profiling_mode,
        max_hours=args.max_hours, node_failure_rate=args.failure_rate,
        resilient=args.resilient, invariants=args.invariants,
        health=args.health,
        scheduler_options={key: getattr(args, key)
                           for key in forklib.SCHEDULER_OPTION_DEFAULTS},
        fault_options={key: getattr(args, key)
                       for key, default
                       in forklib.FAULT_OPTION_DEFAULTS.items()
                       if getattr(args, key) != default})


def _build(spec: dict, **plumbing) -> Simulator:
    """:func:`simulator_from_spec`, with a bad recipe (e.g. an unknown
    scheduler) turned into a clean exit."""
    try:
        return simulator_from_spec(spec, **plumbing)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _wants_tracing(args: argparse.Namespace) -> bool:
    return bool(args.trace_out or args.events_out or args.metrics_digest)


def _checkpoint_config(args: argparse.Namespace) -> CheckpointConfig | None:
    if not args.checkpoint_dir:
        return None
    return CheckpointConfig(directory=args.checkpoint_dir,
                            every_rounds=args.checkpoint_every,
                            keep=args.checkpoint_keep)


def _build_slo_engine(args: argparse.Namespace,
                      simulator: Simulator) -> SLOEngine | None:
    """The SLO engine this run should evaluate, or None.  Enabled by
    ``--slo`` (a ruleset path or 'default'), and implicitly — with the
    default ruleset — by ``--alerts-out``."""
    if args.slo is None and not args.alerts_out:
        return None
    try:
        rules = parse_rules(args.slo)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"bad --slo ruleset: {exc}")
    return SLOEngine(rules, metrics=simulator.metrics)


def _attach_observers(args: argparse.Namespace, simulator: Simulator,
                      tracer: Tracer | None) -> None:
    """Build the live-telemetry observer chain for one run.

    Order matters: the SLO evaluator runs first so each round's alerts
    exist before the alert stream sees the record.
    """
    observers = simulator.config.observers
    slo_engine = _build_slo_engine(args, simulator)
    if slo_engine is not None:
        observers.append(SLOObserver(slo_engine))
    if args.alerts_out:
        observers.append(AlertStreamObserver(
            args.alerts_out, simulator.scheduler.name))
    if tracer is not None and args.events_out:
        observers.append(EventStreamObserver(
            tracer, args.events_out, metrics=simulator.metrics))
    if args.ledger_out:
        observers.append(LedgerStreamObserver(
            args.ledger_out, simulator.scheduler.name))
    if args.health_events_out:
        observers.append(HealthEventStreamObserver(
            args.health_events_out, simulator.scheduler.name))
    if args.prom_out:
        observers.append(PrometheusSnapshotObserver(
            simulator.metrics, args.prom_out))


def _simulate(spec: dict, args: argparse.Namespace, *,
              checkpoint: CheckpointConfig | None = None,
              resume_from: str | None = None):
    """Run one spec with the observability outputs ``args`` asks for; the
    result carries the spec as its ``run_spec`` so `repro replay` can fork
    it."""
    tracer = Tracer() if _wants_tracing(args) else None
    simulator = _build(spec, tracer=tracer, checkpoint=checkpoint)
    _attach_observers(args, simulator, tracer)
    result = simulator.run(resume_from=resume_from)
    result.run_spec = spec
    _export_observability(result, tracer, args)
    # The JSONL outputs streamed during the run (flushed per round,
    # finalized atomically at the end); report where the files landed.
    if tracer is not None and args.events_out:
        print(f"wrote event log to {args.events_out} (streamed per round)")
    if args.ledger_out:
        print(f"wrote goodput ledger to {args.ledger_out} "
              "(streamed per round)")
    if args.alerts_out:
        print(f"wrote SLO alerts to {args.alerts_out} (streamed per round)")
    if args.prom_out:
        print(f"wrote Prometheus snapshot to {args.prom_out}")
    if args.health_events_out:
        print(f"wrote health events to {args.health_events_out} "
              "(streamed per round)")
    return result


def _export_observability(result, tracer: Tracer | None,
                          args: argparse.Namespace) -> None:
    """Write the trace/event files and print the digest, as requested."""
    if tracer is None:
        return
    events = list(tracer.events)
    if args.trace_out:
        write_chrome_trace(tracer.spans, args.trace_out, events)
        print(f"wrote Chrome trace to {args.trace_out} "
              "(open at https://ui.perfetto.dev)")
    # --events-out streams during the run (EventStreamObserver); only the
    # Chrome trace and digest are post-run renderings.
    if args.metrics_digest:
        print(run_digest(result))


def _print_robustness_summary(result) -> None:
    """One-line fault/degradation digest after a run (omitted when clean)."""
    faults = result.fault_counts()
    degraded = result.degraded_rounds
    backends = {k or "?": v for k, v in result.backend_counts().items()}
    caught = int(result.final_metrics.get("caught_scheduler_failures", 0))
    health = result.health_counts()
    alerts = result.alert_counts()
    if not faults and not degraded and not caught and not health \
            and not alerts:
        return
    parts = []
    if faults:
        parts.append("faults: " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(faults.items())))
    parts.append(f"degraded rounds: {degraded}/{len(result.rounds)}")
    parts.append("backends: " + ", ".join(
        f"{k}={v}" for k, v in sorted(backends.items())))
    if caught:
        parts.append(f"caught scheduler failures: {caught}")
    if health:
        parts.append("health: " + ", ".join(
            f"{k}={v}" for k, v in sorted(health.items())))
    if alerts:
        parts.append("slo alerts: " + ", ".join(
            f"{rule}={n}" for rule, n in sorted(alerts.items())))
    print("; ".join(parts))


# -- subcommands ---------------------------------------------------------------

def cmd_trace(args: argparse.Namespace) -> int:
    trace = resolve_trace(args)
    print(f"trace {trace.name}: {trace.num_jobs} jobs, "
          f"models: {trace.models_used()}")
    if args.out:
        io.save_trace(trace, args.out)
        print(f"saved to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    trace = resolve_trace(args)
    result = _simulate(_run_spec(args, args.scheduler, trace), args,
                       checkpoint=_checkpoint_config(args),
                       resume_from=args.resume_from)
    print(format_table([summarize(result).as_row()],
                       title=f"{args.scheduler} on {trace.name} "
                             f"({args.cluster})"))
    _print_robustness_summary(result)
    if args.out:
        io.save_result(result, args.out)
        print(f"saved result to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report
    results = [io.load_result(path) for path in args.results]
    diffs = [io.load_run_diff(path) for path in (args.diff or [])]
    text = build_report(results, title=args.title, diffs=diffs)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.explain import explain_job
    result = io.load_result(args.result)
    if not result.rounds:
        raise SystemExit(f"{args.result} has no per-round records to "
                         "explain")
    counterfactual = None
    if args.counterfactual:
        counterfactual = io.load_run_diff(args.counterfactual)
    try:
        print(explain_job(result, args.job, round_index=args.round,
                          counterfactual=counterfactual))
    except (KeyError, IndexError) as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Counterfactual replay: fork a recorded run, diff the two futures."""
    from repro.analysis.replay import replay

    base = io.load_result(args.result)
    if not base.rounds:
        raise SystemExit(f"{args.result} has no per-round records to "
                         "replay")
    try:
        outcome = replay(base, args.at_round, policy=args.policy,
                         checkpoint_dir=args.from_checkpoints)
    except ValueError as exc:
        raise SystemExit(str(exc))
    diff = outcome.diff
    over = ", ".join(f"{k}={v}" for k, v in diff.overrides.items()) \
        or "none (identity fork)"
    print(f"forked {diff.base_scheduler} at round {diff.fork_round} "
          f"-> {diff.fork_scheduler} (overrides: {over})")
    if diff.identical:
        print("futures are bit-identical (modulo wall-clock telemetry)")
    elif diff.divergence is not None:
        d = diff.divergence
        print(f"diverged at round {d.round_index} (t={d.time:.0f}s): "
              f"{d.reason}")
    print(format_table([{
        "metric": m.name, "base": round(m.base, 3),
        "fork": round(m.fork, 3), "delta": round(m.delta, 3),
    } for m in diff.metrics], title="outcome deltas"))
    if args.diff_out:
        io.save_run_diff(diff, args.diff_out)
        print(f"wrote run diff to {args.diff_out}")
    if args.fork_out:
        io.save_result(outcome.fork, args.fork_out)
        print(f"saved forked result to {args.fork_out}")
    if args.policy is None and not diff.identical:
        print("IDENTITY VIOLATION: a zero-override fork must reproduce "
              "the base run bit-identically", file=sys.stderr)
        for line in diff.mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


#: ``chaos --scenario gray`` preset: all three gray-failure fault models and
#: strict invariants on a short dense run (health and --resilient are
#: forced on).  Only flags left at their defaults are set, so explicit
#: overrides win.
_GRAY_SCENARIO = {
    "gray_rate": 4.0, "placement_fail_prob": 0.15,
    "telemetry_corrupt_rate": 0.1, "invariants": "strict",
    "num_jobs": 8, "work_scale": 0.2, "window_hours": 0.5,
    "max_hours": 6.0, "kill_round": 12,
}


def _apply_gray_scenario_defaults(args: argparse.Namespace) -> None:
    defaults = build_parser().parse_args(["chaos"])
    for key, value in _GRAY_SCENARIO.items():
        if getattr(args, key) == getattr(defaults, key):
            setattr(args, key, value)
    args.health = True
    args.resilient = True


def cmd_chaos(args: argparse.Namespace) -> int:
    """Kill/resume equivalence experiment (see :mod:`repro.sim.chaos`)."""
    import tempfile

    if args.scenario == "gray":
        _apply_gray_scenario_defaults(args)
    trace = resolve_trace(args)
    spec = _run_spec(args, args.scheduler, trace)

    def factory(ckpt_cfg):
        # A fresh simulator per run: the three runs (reference, victim,
        # survivor) must not share solver/estimator state.
        return _build(spec, checkpoint=ckpt_cfg)

    directory = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"chaos: scenario={args.scenario} scheduler={args.scheduler} "
          f"trace={trace.name} kill_stage={args.kill_stage} "
          f"checkpoints={directory}",
          file=sys.stderr)
    report = run_chaos(factory, directory=directory,
                       kill_round=args.kill_round,
                       kill_stage=args.kill_stage,
                       chaos_seed=args.chaos_seed,
                       every_rounds=args.checkpoint_every,
                       keep=args.checkpoint_keep,
                       corrupt_latest=args.corrupt_latest)
    print(report.summary())
    if not report.equivalent:
        for line in report.mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
        if len(report.mismatches) > 20:
            print(f"  ... and {len(report.mismatches) - 20} more",
                  file=sys.stderr)
        return 1
    if not report.crashed:
        print(f"chaos: the crash never fired; the reference run has "
              f"{report.reference_rounds} rounds", file=sys.stderr)
        return 1
    return 0


# -- parser ----------------------------------------------------------------------

def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", help="path to a saved trace JSON")
    parser.add_argument("--trace-name", default="philly",
                        choices=sorted(SPECS),
                        help="workload family to sample (default: philly)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--num-jobs", type=int, default=None)
    parser.add_argument("--work-scale", type=float, default=1.0,
                        help="job-length multiplier (benches use ~0.2)")
    parser.add_argument("--window-hours", type=float, default=None)


def _add_recipe_options(parser: argparse.ArgumentParser) -> None:
    """The knobs a run spec records (``run``, ``chaos``)."""
    group = parser.add_argument_group(
        "run recipe", "what is simulated: cluster, scheduler, faults, "
        "simulator knobs (recorded in the result's run_spec)")
    faults = forklib.FAULT_OPTION_DEFAULTS
    sched = forklib.SCHEDULER_OPTION_DEFAULTS
    group.add_argument("--cluster", default="heterogeneous",
                        choices=sorted(presets.PRESETS))
    group.add_argument("--profiling-mode",
                        default=SimulatorConfig.profiling_mode.value,
                        choices=[m.value for m in ProfilingMode])
    group.add_argument("--max-hours", type=float,
                        default=SimulatorConfig.max_hours)
    group.add_argument("--failure-rate", type=float,
                        default=SimulatorConfig.node_failure_rate,
                        help="node failures per node-hour")
    group.add_argument("--straggler-rate", type=float,
                        default=faults["straggler_rate"],
                        help="straggler onsets per node-hour")
    group.add_argument("--straggler-slowdown", type=float,
                        default=faults["straggler_slowdown"],
                        help="straggling node speed factor in (0, 1]")
    group.add_argument("--straggler-duration", type=float,
                        default=faults["straggler_duration"],
                        help="seconds a straggler stays slow")
    group.add_argument("--job-crash-rate", type=float,
                        default=faults["job_crash_rate"],
                        help="transient job crashes per job-hour")
    group.add_argument("--restore-failure-prob", type=float,
                        default=faults["restore_failure_prob"],
                        help="probability a restore round fails, in [0, 1)")
    group.add_argument("--gray-rate", type=float,
                        default=faults["gray_rate"],
                        help="gray-failure onsets per node-hour (silent "
                             "slowdowns masked from telemetry)")
    group.add_argument("--gray-slowdown", type=float,
                        default=faults["gray_slowdown"],
                        help="gray-failed node speed factor in (0, 1]")
    group.add_argument("--gray-duration", type=float,
                        default=faults["gray_duration"],
                        help="seconds a gray failure persists")
    group.add_argument("--placement-fail-prob", type=float,
                        default=faults["placement_fail_prob"],
                        help="per-node probability an applied allocation "
                             "fails to start, in [0, 1)")
    group.add_argument("--telemetry-corrupt-rate", type=float,
                        default=faults["telemetry_corrupt_rate"],
                        help="per-observation corruption probability "
                             "(drop/duplicate/scale/stale), in [0, 1)")
    group.add_argument("--health", action="store_true",
                        help="enable node health scoring with "
                             "probation/quarantine/drain")
    group.add_argument("--resilient", action="store_true",
                        help="carry the previous round forward when "
                             "planning a round fails")
    group.add_argument("--round-duration", type=float,
                        default=sched["round_duration"])
    group.add_argument("--p", type=float, default=sched["p"],
                        help="Sia fairness power")
    group.add_argument("--lam", type=float, default=sched["lam"],
                        help="Sia allocation incentive lambda")
    group.add_argument("--solver", default=sched["solver"],
                        choices=list(BACKENDS))
    group.add_argument("--gavel-policy", default=sched["gavel_policy"],
                        choices=list(GavelScheduler.POLICIES))
    group.add_argument("--invariants", default=SimulatorConfig.invariants,
                        choices=list(INVARIANT_MODES),
                        help="round-level invariant auditing: strict "
                             "aborts on the first violation")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    """Observability outputs (``run``)."""
    group = parser.add_argument_group("observability outputs")
    group.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome/Perfetto trace_event JSON here")
    group.add_argument("--events-out", metavar="PATH",
                        help="write a JSONL span/event log here")
    group.add_argument("--metrics-digest", action="store_true",
                        help="print a per-run observability digest "
                             "(phase breakdown, span stats, metrics)")
    group.add_argument("--ledger-out", metavar="PATH",
                        help="stream the goodput ledger + allocation events "
                             "as JSONL here, flushed per round")
    group.add_argument("--slo", metavar="RULES", nargs="?", const="default",
                        help="evaluate SLO rules live each round: 'default' "
                             "(or no value) for the stock ruleset, or a "
                             "JSON ruleset path")
    group.add_argument("--alerts-out", metavar="PATH",
                        help="stream fired SLO alerts as JSONL here "
                             "(implies --slo default unless --slo is given)")
    group.add_argument("--prom-out", metavar="PATH",
                        help="rewrite a Prometheus text-exposition snapshot "
                             "of the live metrics here every round")
    group.add_argument("--health-events-out", metavar="PATH",
                        help="stream node health-state transitions as JSONL "
                             "here, flushed per round")


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    """Engine checkpoints (``run``, ``chaos``)."""
    group = parser.add_argument_group("checkpoints")
    group.add_argument("--checkpoint-dir", metavar="DIR",
                        help="write atomic engine checkpoints here")
    group.add_argument("--checkpoint-every", type=int,
                        default=CheckpointConfig.every_rounds,
                        metavar="N", help="checkpoint every N rounds")
    group.add_argument("--checkpoint-keep", type=int,
                        default=CheckpointConfig.keep,
                        metavar="N",
                        help="checkpoints retained on disk (0 = all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sia (SOSP 2023) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="sample and optionally save a trace")
    _add_trace_options(trace)
    trace.add_argument("--out", help="write the trace JSON here")
    trace.set_defaults(func=cmd_trace)

    run = sub.add_parser("run", help="simulate one scheduler on a trace")
    run.add_argument("--scheduler", default="sia")
    _add_trace_options(run)
    _add_recipe_options(run)
    _add_output_options(run)
    _add_checkpoint_options(run)
    run.add_argument("--out", help="write the result JSON here")
    run.add_argument("--resume-from", metavar="PATH",
                     help="resume from a checkpoint file or directory "
                          "(newest valid checkpoint; falls back past "
                          "corrupted files)")
    run.set_defaults(func=cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="kill a checkpointed run and prove the resume is equivalent")
    chaos.add_argument("--scheduler", default="sia")
    _add_trace_options(chaos)
    _add_recipe_options(chaos)
    _add_checkpoint_options(chaos)
    chaos.add_argument("--scenario", default="kill",
                       choices=["kill", "gray"],
                       help="'kill' = plain crash/resume; 'gray' = layer in "
                            "gray failures, placement flaps, telemetry "
                            "corruption, health scoring and strict "
                            "invariants before the crash")
    chaos.add_argument("--kill-round", type=int, default=None,
                       help="round to crash at (default: seeded random)")
    chaos.add_argument("--kill-stage", default="round_end",
                       choices=["round_end", "pre_write", "mid_write",
                                "pre_rename", "post_rename"],
                       help="where the crash lands (write stages hit the "
                            "checkpoint writer mid-flight)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the random kill round")
    chaos.add_argument("--corrupt-latest", action="store_true",
                       help="also corrupt the newest surviving checkpoint "
                            "before resuming (exercises fallback)")
    # Chaos runs are short; checkpoint often and keep everything so the
    # corruption-fallback path always has older files to land on.
    chaos.set_defaults(func=cmd_chaos, checkpoint_every=5, checkpoint_keep=0)

    report = sub.add_parser("report",
                            help="build a markdown report from saved results")
    report.add_argument("results", nargs="+",
                        help="result JSON files from `run --out`")
    report.add_argument("--title", default="Simulation report")
    report.add_argument("--out", help="write the markdown here")
    report.add_argument("--diff", action="append", metavar="PATH",
                        help="append a counterfactual decision-diff section "
                             "from a `replay --diff-out` file (repeatable)")
    report.set_defaults(func=cmd_report)

    explain = sub.add_parser(
        "explain",
        help="print one job's decision timeline from a saved result")
    explain.add_argument("result",
                         help="result JSON from `run --out` (with rounds)")
    explain.add_argument("--job", required=True,
                         help="job id to explain")
    explain.add_argument("--round", type=int, default=None,
                         help="zoom into one scheduling round")
    explain.add_argument("--counterfactual", metavar="PATH",
                         help="annotate the timeline with the alternate "
                              "future from a `replay --diff-out` file")
    explain.set_defaults(func=cmd_explain)

    replay = sub.add_parser(
        "replay",
        help="fork a recorded run at round N, optionally under another "
             "policy, and diff the two futures")
    replay.add_argument("result",
                        help="result JSON from `run --out` (carries the "
                             "run spec the fork is rebuilt from)")
    replay.add_argument("--at-round", type=int, required=True,
                        help="round to fork at (rounds before it are "
                             "shared history)")
    replay.add_argument("--policy", default=None,
                        help="swap the scheduler from the fork round on "
                             "(e.g. gavel)")
    replay.add_argument("--from-checkpoints", metavar="DIR", default=None,
                        help="fast-forward from the newest checkpoint at "
                             "or before the fork round instead of "
                             "recomputing from round 0")
    replay.add_argument("--diff-out", metavar="PATH",
                        help="write the RunDiff JSON here (consumed by "
                             "`explain --counterfactual` and "
                             "`report --diff`)")
    replay.add_argument("--fork-out", metavar="PATH",
                        help="save the forked future as a result JSON")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
