"""Command-line interface: run reproduction experiments without writing code.

Subcommands::

    python -m repro catalog                    # model zoo + GPU catalog
    python -m repro trace --name helios --seed 0 --out trace.json
    python -m repro run --scheduler sia --cluster heterogeneous \\
                        --trace-name philly --num-jobs 40 --work-scale 0.2
    python -m repro compare --trace-name helios --num-jobs 48 \\
                            --schedulers sia,pollux,gavel
    python -m repro report results/*.json --out report.md
    python -m repro explain result.json --job philly-0017
    python -m repro run ... --checkpoint-dir ckpts --checkpoint-every 25
    python -m repro run ... --resume-from ckpts     # continue a killed run
    python -m repro chaos --trace-name philly --num-jobs 12 --work-scale 0.05
    python -m repro chaos --scenario gray     # gray failures + health defense
    python -m repro run ... --gray-rate 2 --health --health-events-out h.jsonl
    python -m repro run ... --slo rules.json --alerts-out alerts.jsonl

``run`` and ``compare`` accept either a saved trace file (``--trace``) or
generator parameters (``--trace-name``/``--seed``/...).  Results can be
saved with ``--out`` and reloaded with :mod:`repro.io`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro import io
from repro.analysis.render import format_table
from repro.cluster import presets
from repro.cluster.gpu import GPU_CATALOG
from repro.core import fork as forklib
from repro.core.health import HealthConfig
from repro.core.types import ProfilingMode
from repro.metrics.jct import summarize
from repro.obs.export import run_digest, write_chrome_trace
from repro.obs.slo import SLOEngine, parse_rules
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              HealthEventStreamObserver, LedgerStreamObserver,
                              PrometheusSnapshotObserver, SLOObserver)
from repro.obs.tracer import Tracer
from repro.perf.profiles import MODEL_ZOO
from repro.schedulers import GavelScheduler
from repro.schedulers.base import Scheduler
from repro.sim.chaos import run_chaos
from repro.sim.checkpoint import CheckpointConfig
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.faults import FaultModel
from repro.sim.invariants import MODES as INVARIANT_MODES
from repro.workloads.generators import SPECS, trace_by_name
from repro.workloads.trace import Trace
from repro.workloads.tuning import tuned_jobs


def build_scheduler(name: str, args: argparse.Namespace) -> Scheduler:
    """CLI front-end of :func:`repro.core.fork.make_scheduler` (the shared
    factory the replay engine also uses)."""
    try:
        return forklib.make_scheduler(
            name,
            round_duration=args.round_duration,
            p=args.p, lam=args.lam, solver=args.solver,
            gavel_policy=args.gavel_policy,
            resilient=getattr(args, "resilient", False),
            solve_budget=getattr(args, "solve_budget", 5.0))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _fault_options(args: argparse.Namespace) -> dict[str, float]:
    """The fault knobs as a plain dict (the replay run-spec vocabulary)."""
    return {key: getattr(args, key, default)
            for key, default in forklib.FAULT_OPTION_DEFAULTS.items()}


def build_fault_models(args: argparse.Namespace) -> list[FaultModel]:
    """Fault injectors requested on the command line (node crashes keep
    riding the legacy --failure-rate path inside the simulator)."""
    return forklib.make_fault_models(_fault_options(args))


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


def _wants_tracing(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_out", None)
                or getattr(args, "events_out", None)
                or getattr(args, "metrics_digest", False))


def _checkpoint_config(args: argparse.Namespace) -> CheckpointConfig | None:
    directory = getattr(args, "checkpoint_dir", None)
    if not directory:
        return None
    return CheckpointConfig(directory=directory,
                            every_rounds=args.checkpoint_every,
                            keep=args.checkpoint_keep)


def _build_slo_engine(args: argparse.Namespace,
                      simulator: Simulator) -> SLOEngine | None:
    """The SLO engine this run should evaluate, or None.  Enabled by
    ``--slo`` (a ruleset path or 'default'), and implicitly — with the
    default ruleset — by ``--alerts-out``."""
    source = getattr(args, "slo", None)
    if source is None and not getattr(args, "alerts_out", None):
        return None
    try:
        rules = parse_rules(source)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"bad --slo ruleset: {exc}")
    return SLOEngine(rules, metrics=simulator.metrics)


def _attach_observers(args: argparse.Namespace, simulator: Simulator,
                      tracer: Tracer | None, suffix: str) -> None:
    """Build the live-telemetry observer chain for one run.

    Order matters: the SLO evaluator runs first so each round's alerts
    exist before the alert stream sees the record.
    """
    observers = simulator.config.observers
    slo_engine = _build_slo_engine(args, simulator)
    if slo_engine is not None:
        observers.append(SLOObserver(slo_engine))
    if getattr(args, "alerts_out", None):
        observers.append(AlertStreamObserver(
            _suffixed(args.alerts_out, suffix), simulator.scheduler.name))
    if tracer is not None and getattr(args, "events_out", None):
        observers.append(EventStreamObserver(
            tracer, _suffixed(args.events_out, suffix),
            metrics=simulator.metrics))
    if getattr(args, "ledger_out", None):
        observers.append(LedgerStreamObserver(
            _suffixed(args.ledger_out, suffix), simulator.scheduler.name))
    if getattr(args, "health_events_out", None):
        observers.append(HealthEventStreamObserver(
            _suffixed(args.health_events_out, suffix),
            simulator.scheduler.name))
    if getattr(args, "prom_out", None):
        observers.append(PrometheusSnapshotObserver(
            simulator.metrics, _suffixed(args.prom_out, suffix)))


def _simulate(scheduler_name: str, args: argparse.Namespace, trace: Trace,
              suffix: str = ""):
    cluster = presets.by_name(args.cluster)
    scheduler = build_scheduler(scheduler_name, args)
    jobs = trace.jobs
    if scheduler_name in forklib.RIGID_SCHEDULERS:
        jobs = tuned_jobs(jobs, cluster, seed=trace.seed)
    tracer = Tracer() if _wants_tracing(args) else None
    config = SimulatorConfig(
        profiling_mode=ProfilingMode(args.profiling_mode),
        seed=args.seed, max_hours=args.max_hours,
        node_failure_rate=args.failure_rate,
        fault_models=build_fault_models(args),
        resilient=getattr(args, "resilient", False),
        tracer=tracer,
        checkpoint=_checkpoint_config(args),
        invariants=getattr(args, "invariants", "off"),
        health=HealthConfig() if getattr(args, "health", False) else None)
    simulator = Simulator(cluster, scheduler, jobs, config)
    _attach_observers(args, simulator, tracer, suffix)
    result = simulator.run(resume_from=getattr(args, "resume_from", None))
    # Record the construction recipe so a saved result can be forked by
    # `repro replay` (jobs are recorded post-tuning, so rigid-scheduler
    # runs replay without re-tuning).
    from repro.analysis.replay import build_run_spec
    result.run_spec = build_run_spec(
        scheduler=scheduler_name, cluster=args.cluster, jobs=jobs,
        seed=args.seed, profiling_mode=args.profiling_mode,
        max_hours=args.max_hours, node_failure_rate=args.failure_rate,
        resilient=getattr(args, "resilient", False),
        invariants=getattr(args, "invariants", "off"),
        health=getattr(args, "health", False),
        scheduler_options={
            "round_duration": args.round_duration, "p": args.p,
            "lam": args.lam, "solver": args.solver,
            "gavel_policy": args.gavel_policy,
            "solve_budget": getattr(args, "solve_budget", 5.0),
        },
        fault_options={k: v for k, v in _fault_options(args).items()
                       if v != forklib.FAULT_OPTION_DEFAULTS[k]})
    violations = simulator.invariant_violations
    if violations:
        print(f"invariant violations: {len(violations)} "
              f"(first: {violations[0].message})", file=sys.stderr)
    _export_observability(result, tracer, args, suffix)
    # The JSONL outputs streamed during the run (flushed per round,
    # finalized atomically at the end); report where the files landed.
    if tracer is not None and getattr(args, "events_out", None):
        print(f"wrote event log to {_suffixed(args.events_out, suffix)} "
              "(streamed per round)")
    if getattr(args, "ledger_out", None):
        print(f"wrote goodput ledger to "
              f"{_suffixed(args.ledger_out, suffix)} (streamed per round)")
    if getattr(args, "alerts_out", None):
        print(f"wrote SLO alerts to {_suffixed(args.alerts_out, suffix)} "
              "(streamed per round)")
    if getattr(args, "prom_out", None):
        print(f"wrote Prometheus snapshot to "
              f"{_suffixed(args.prom_out, suffix)}")
    if getattr(args, "health_events_out", None):
        print(f"wrote health events to "
              f"{_suffixed(args.health_events_out, suffix)} "
              "(streamed per round)")
    return result


def _suffixed(path: str, suffix: str) -> Path:
    """``trace.json`` + suffix ``sia`` -> ``trace-sia.json`` (compare mode
    writes one file per scheduler)."""
    p = Path(path)
    if not suffix:
        return p
    return p.with_name(f"{p.stem}-{suffix}{p.suffix}")


def _export_observability(result, tracer: Tracer | None,
                          args: argparse.Namespace, suffix: str = "") -> None:
    """Write the trace/event files and print the digest, as requested."""
    if tracer is None:
        return
    events = list(tracer.events)
    if getattr(args, "trace_out", None):
        path = _suffixed(args.trace_out, suffix)
        write_chrome_trace(tracer.spans, path, events)
        print(f"wrote Chrome trace to {path} "
              "(open at https://ui.perfetto.dev)")
    # --events-out streams during the run (EventStreamObserver); only the
    # Chrome trace and digest are post-run renderings.
    if getattr(args, "metrics_digest", False):
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

def cmd_catalog(args: argparse.Namespace) -> int:
    rows = [{
        "model": p.name, "category": p.category, "task": p.task,
        "dataset": p.dataset, "batch_range": f"[{p.min_bsz}, {p.max_bsz}]",
        "optimizer": p.optimizer, "restart_s": p.restart_delay_s,
    } for p in MODEL_ZOO.values()]
    print(format_table(rows, title="Model zoo (Table 2)"))
    print()
    gpu_rows = [{
        "gpu": s.name, "memory_gb": s.memory_gb,
        "compute_scale": s.compute_scale,
        "intra_gbps": s.intra_node_bw_gbps,
        "inter_gbps": s.inter_node_bw_gbps,
    } for s in GPU_CATALOG.values()]
    print(format_table(gpu_rows, title="GPU catalog (Section 4.2)"))
    return 0


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
    result = _simulate(args.scheduler, args, trace)
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
        raise SystemExit(f"{args.result} has no per-round records "
                         "(saved with include_rounds=False?); re-run and "
                         "save with rounds to explain decisions")
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
    from repro.analysis.replay import ReplayOverrides, replay
    from repro.obs.export import write_run_diff_jsonl

    base = io.load_result(args.result)
    if not base.rounds:
        raise SystemExit(f"{args.result} has no per-round records; re-run "
                         "and save with rounds to replay")
    try:
        overrides = ReplayOverrides(
            policy=args.policy, solver_backend=args.solver_backend,
            fault_seed=args.fault_seed, cluster_delta=args.cluster_delta,
            health=args.health_mode)
        outcome = replay(base, args.at_round, overrides,
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
    if args.diff_jsonl:
        write_run_diff_jsonl(diff, args.diff_jsonl)
        print(f"wrote run-diff JSONL to {args.diff_jsonl}")
    if args.fork_out:
        io.save_result(outcome.fork, args.fork_out)
        print(f"saved forked result to {args.fork_out}")
    if overrides.empty and not diff.identical:
        print("IDENTITY VIOLATION: a zero-override fork must reproduce "
              "the base run bit-identically", file=sys.stderr)
        for line in diff.mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


def _apply_gray_scenario_defaults(args: argparse.Namespace) -> None:
    """``chaos --scenario gray`` preset: all three gray-failure fault models,
    health scoring, and strict invariants on a short dense run.  Only flags
    the user left at their defaults are touched, so explicit overrides win."""
    if args.gray_rate == 0.0:
        args.gray_rate = 4.0
    if args.placement_fail_prob == 0.0:
        args.placement_fail_prob = 0.15
    if args.telemetry_corrupt_rate == 0.0:
        args.telemetry_corrupt_rate = 0.1
    args.health = True
    args.resilient = True
    if args.invariants == "off":
        args.invariants = "strict"
    if args.num_jobs is None:
        args.num_jobs = 8
    if args.work_scale == 1.0:
        args.work_scale = 0.2
    if args.window_hours is None:
        args.window_hours = 0.5
    if args.max_hours == 1000.0:
        args.max_hours = 6.0
    if args.kill_round is None:
        args.kill_round = 12


def cmd_chaos(args: argparse.Namespace) -> int:
    """Kill/resume equivalence experiment (see :mod:`repro.sim.chaos`)."""
    import tempfile

    if getattr(args, "scenario", "kill") == "gray":
        _apply_gray_scenario_defaults(args)
    trace = resolve_trace(args)
    cluster = presets.by_name(args.cluster)
    jobs = trace.jobs
    if args.scheduler in forklib.RIGID_SCHEDULERS:
        jobs = tuned_jobs(jobs, cluster, seed=trace.seed)

    def factory(ckpt_cfg):
        # A fresh scheduler per run: the three runs (reference, victim,
        # survivor) must not share solver/estimator state.
        scheduler = build_scheduler(args.scheduler, args)
        config = SimulatorConfig(
            profiling_mode=ProfilingMode(args.profiling_mode),
            seed=args.seed, max_hours=args.max_hours,
            node_failure_rate=args.failure_rate,
            fault_models=build_fault_models(args),
            resilient=getattr(args, "resilient", False),
            checkpoint=ckpt_cfg,
            invariants=args.invariants,
            health=HealthConfig() if getattr(args, "health", False) else None)
        return Simulator(cluster, scheduler, jobs, config)

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
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    trace = resolve_trace(args)
    names = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    rows = []
    for name in names:
        print(f"simulating {name} ...", file=sys.stderr)
        result = _simulate(name, args, trace, suffix=name)
        rows.append(summarize(result).as_row())
    print(format_table(rows, title=f"Comparison on {trace.name} "
                                   f"({args.cluster})"))
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


def _add_sim_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cluster", default="heterogeneous",
                        choices=sorted(presets.PRESETS))
    parser.add_argument("--profiling-mode", default="bootstrap",
                        choices=[m.value for m in ProfilingMode])
    parser.add_argument("--max-hours", type=float, default=1000.0)
    parser.add_argument("--failure-rate", type=float, default=0.0,
                        help="node failures per node-hour")
    parser.add_argument("--straggler-rate", type=float, default=0.0,
                        help="straggler onsets per node-hour")
    parser.add_argument("--straggler-slowdown", type=float, default=0.5,
                        help="straggling node speed factor in (0, 1]")
    parser.add_argument("--straggler-duration", type=float, default=1800.0,
                        help="seconds a straggler stays slow")
    parser.add_argument("--job-crash-rate", type=float, default=0.0,
                        help="transient job crashes per job-hour")
    parser.add_argument("--restore-failure-prob", type=float, default=0.0,
                        help="probability a restore round fails, in [0, 1)")
    parser.add_argument("--gray-rate", type=float, default=0.0,
                        help="gray-failure onsets per node-hour (silent "
                             "slowdowns masked from telemetry)")
    parser.add_argument("--gray-slowdown", type=float, default=0.35,
                        help="gray-failed node speed factor in (0, 1]")
    parser.add_argument("--gray-duration", type=float, default=7200.0,
                        help="seconds a gray failure persists")
    parser.add_argument("--placement-fail-prob", type=float, default=0.0,
                        help="per-node probability an applied allocation "
                             "fails to start, in [0, 1)")
    parser.add_argument("--telemetry-corrupt-rate", type=float, default=0.0,
                        help="per-observation corruption probability "
                             "(drop/duplicate/scale/stale), in [0, 1)")
    parser.add_argument("--health", action="store_true",
                        help="enable node health scoring with "
                             "probation/quarantine/drain")
    parser.add_argument("--health-events-out", metavar="PATH",
                        help="stream node health-state transitions as JSONL "
                             "here, flushed per round (compare mode appends "
                             "the scheduler name)")
    parser.add_argument("--resilient", action="store_true",
                        help="solver fallback chain + carry-forward guard")
    parser.add_argument("--solve-budget", type=float, default=5.0,
                        help="per-round solver wall-clock budget, seconds")
    parser.add_argument("--round-duration", type=float, default=60.0)
    parser.add_argument("--p", type=float, default=-0.5,
                        help="Sia fairness power")
    parser.add_argument("--lam", type=float, default=1.1,
                        help="Sia allocation incentive lambda")
    parser.add_argument("--solver", default="milp",
                        choices=list(forklib.SOLVER_BACKENDS))
    parser.add_argument("--gavel-policy", default="max_sum_throughput",
                        choices=list(GavelScheduler.POLICIES))
    parser.add_argument("--out", help="write results/trace JSON here")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome/Perfetto trace_event JSON here "
                             "(compare mode appends the scheduler name)")
    parser.add_argument("--events-out", metavar="PATH",
                        help="write a JSONL span/event log here")
    parser.add_argument("--metrics-digest", action="store_true",
                        help="print a per-run observability digest "
                             "(phase breakdown, span stats, metrics)")
    parser.add_argument("--ledger-out", metavar="PATH",
                        help="stream the goodput ledger + allocation events "
                             "as JSONL here, flushed per round (compare "
                             "mode appends the scheduler name)")
    parser.add_argument("--slo", metavar="RULES", nargs="?", const="default",
                        help="evaluate SLO rules live each round: 'default' "
                             "(or no value) for the stock ruleset, or a "
                             "JSON/YAML ruleset path")
    parser.add_argument("--alerts-out", metavar="PATH",
                        help="stream fired SLO alerts as JSONL here "
                             "(implies --slo default unless --slo is given)")
    parser.add_argument("--prom-out", metavar="PATH",
                        help="rewrite a Prometheus text-exposition snapshot "
                             "of the live metrics here every round")
    parser.add_argument("--invariants", default="off",
                        choices=list(INVARIANT_MODES),
                        help="round-level invariant auditing: log records "
                             "violations, strict aborts on the first")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="write atomic engine checkpoints here")
    parser.add_argument("--checkpoint-every", type=int,
                        default=CheckpointConfig.every_rounds,
                        metavar="N", help="checkpoint every N rounds")
    parser.add_argument("--checkpoint-keep", type=int,
                        default=CheckpointConfig.keep,
                        metavar="N",
                        help="checkpoints retained on disk (0 = all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sia (SOSP 2023) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="print the model/GPU catalogs")
    catalog.set_defaults(func=cmd_catalog)

    trace = sub.add_parser("trace", help="sample and optionally save a trace")
    _add_trace_options(trace)
    trace.add_argument("--out", help="write the trace JSON here")
    trace.set_defaults(func=cmd_trace)

    run = sub.add_parser("run", help="simulate one scheduler on a trace")
    run.add_argument("--scheduler", default="sia")
    _add_trace_options(run)
    _add_sim_options(run)
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
    _add_sim_options(chaos)
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

    compare = sub.add_parser("compare",
                             help="simulate several schedulers on one trace")
    compare.add_argument("--schedulers", default="sia,pollux,gavel")
    _add_trace_options(compare)
    _add_sim_options(compare)
    compare.set_defaults(func=cmd_compare)

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
        help="fork a recorded run at round N under overrides and diff "
             "the two futures")
    replay.add_argument("result",
                        help="result JSON from `run --out` (carries the "
                             "run spec the fork is rebuilt from)")
    replay.add_argument("--at-round", type=int, required=True,
                        help="round to fork at (rounds before it are "
                             "shared history)")
    replay.add_argument("--policy", default=None,
                        help="swap the scheduler from the fork round on "
                             "(e.g. gavel)")
    replay.add_argument("--solver-backend", default=None,
                        choices=list(forklib.SOLVER_BACKENDS),
                        help="rebind the Sia ILP backend mid-run")
    replay.add_argument("--fault-seed", type=int, default=None,
                        help="reseed every fault model ('different luck')")
    replay.add_argument("--cluster-delta", default=None, metavar="SPEC",
                        help="capacity edit, e.g. '+64xa100' or "
                             "'-8xt4,+16xa100:4' (counts are GPUs)")
    replay.add_argument("--health", dest="health_mode", default=None,
                        choices=["on", "off"],
                        help="force the gray-failure defense on/off in "
                             "the fork")
    replay.add_argument("--from-checkpoints", metavar="DIR", default=None,
                        help="fast-forward from the newest checkpoint at "
                             "or before the fork round instead of "
                             "recomputing from round 0")
    replay.add_argument("--diff-out", metavar="PATH",
                        help="write the RunDiff JSON here (consumed by "
                             "`explain --counterfactual` and "
                             "`report --diff`)")
    replay.add_argument("--diff-jsonl", metavar="PATH",
                        help="write the jq-friendly JSONL rendering here")
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
