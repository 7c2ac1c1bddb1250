"""Counterfactual replay: fork a recorded run at round N, diff the futures.

The question this module answers is the one the ROADMAP names for the
observability stack: *what would this exact run have looked like if, at
round N, we had used a different policy, solver backend, fault seed,
cluster size, or health posture?*  It composes three existing subsystems:

* the checkpoint machinery (:mod:`repro.sim.checkpoint`): the fork state is
  a :class:`CheckpointState` — either recomputed deterministically from the
  run's recorded spec via :meth:`Simulator.run_to_round`, or restored from
  an on-disk checkpoint directory and advanced to the fork round;
* the resume-equivalence oracle (:func:`repro.sim.chaos.diff_results`):
  a fork with *zero* overrides must reproduce the base run bit-identically
  (wall-clock telemetry excepted) — any mismatch means the replay itself is
  broken, not the counterfactual;
* the decision ledger and audit taxonomy (:mod:`repro.obs`): the two
  futures are aligned round by round into a :class:`repro.obs.diff.RunDiff`
  with classified allocation deltas, the divergence point, and
  goodput/JCT/queue-wait/fault-recovery metric deltas.

Replay needs the run's construction recipe, the ``run_spec`` every CLI run
records (:func:`build_run_spec`).  :func:`simulator_from_spec` is the one
builder of spec-driven simulators — ``repro run``, ``compare`` and
``chaos`` build theirs through it too — so a fork is rebuilt exactly as
its base run was.  Results saved without a spec cannot be forked and say
so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import io
from repro.cluster import presets
from repro.cluster.cluster import Cluster
from repro.core import fork as forklib
from repro.core.health import HealthConfig
from repro.core.types import ProfilingMode
from repro.metrics.jct import percentile
from repro.obs.diff import (MetricDelta, RunDiff, aligned_ledger_deltas,
                            compare_runs, fault_recovery_seconds)
from repro.obs.ledger import GoodputLedger, queue_wait_by_job
from repro.obs.tracer import Tracer
from repro.sim import checkpoint as ckpt
from repro.sim.chaos import diff_results
from repro.sim.checkpoint import CheckpointConfig, CheckpointState
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.telemetry import SimulationResult

#: how many strict-oracle mismatch lines a RunDiff keeps (they are
#: diagnostics for broken identity, not the decision diff itself).
MAX_MISMATCHES = 200


@dataclass(frozen=True)
class ReplayOverrides:
    """What the forked future does differently.  All-None = identity fork."""

    #: scheduler to swap in at the fork round (e.g. 'gavel').
    policy: str | None = None
    #: ILP backend to rebind on a Sia scheduler (any of ``ilp.BACKENDS``).
    solver_backend: str | None = None
    #: reseed every fault model ("different luck" from the fork on).
    fault_seed: int | None = None
    #: capacity edit spec, e.g. '+64xa100' or '-8xt4,+4xrtx' (GPUs).
    cluster_delta: str | None = None
    #: force the gray-failure defense 'on' or 'off' from the fork round.
    health: str | None = None

    def __post_init__(self) -> None:
        if self.health not in (None, "on", "off"):
            raise ValueError(
                f"health override must be 'on' or 'off', got {self.health!r}")

    @property
    def empty(self) -> bool:
        return (self.policy is None and self.solver_backend is None
                and self.fault_seed is None and self.cluster_delta is None
                and self.health is None)

    def as_dict(self) -> dict[str, str]:
        """Compact {name: value} of only the overrides actually set."""
        out: dict[str, str] = {}
        if self.policy is not None:
            out["policy"] = self.policy
        if self.solver_backend is not None:
            out["solver_backend"] = self.solver_backend
        if self.fault_seed is not None:
            out["fault_seed"] = str(self.fault_seed)
        if self.cluster_delta is not None:
            out["cluster_delta"] = self.cluster_delta
        if self.health is not None:
            out["health"] = self.health
        return out


@dataclass
class ReplayOutcome:
    """A finished counterfactual: the artifact plus both futures."""

    diff: RunDiff
    base: SimulationResult
    fork: SimulationResult


# -- run specs -----------------------------------------------------------------

#: the recipe's simulator knobs default to the SimulatorConfig fields.
_SIM = SimulatorConfig


def build_run_spec(*, scheduler: str, cluster: str, jobs: list,
                   seed: int = _SIM.seed,
                   profiling_mode: str = _SIM.profiling_mode.value,
                   max_hours: float = _SIM.max_hours,
                   node_failure_rate: float = _SIM.node_failure_rate,
                   resilient: bool = _SIM.resilient,
                   invariants: str = _SIM.invariants,
                   health: bool = False,
                   scheduler_options: dict | None = None,
                   fault_options: dict | None = None) -> dict[str, Any]:
    """The construction recipe of a run (``run_spec``), embedded in saved
    results; :func:`simulator_from_spec` builds the simulator from it.

    ``jobs`` is the *exact* job list the simulator runs — for a rigid
    scheduler, after TunedJobs (:func:`repro.core.fork.scheduler_jobs`), so
    replaying a gavel run does not re-tune — serialized with
    :func:`repro.io.job_to_dict`.  ``scheduler_options`` and
    ``fault_options`` take the knob names of
    :data:`repro.core.fork.SCHEDULER_OPTION_DEFAULTS` and
    :data:`repro.core.fork.FAULT_OPTION_DEFAULTS`; unknown fault keys fail
    fast here rather than at fork time.
    """
    options = dict(fault_options or {})
    unknown = set(options) - set(forklib.FAULT_OPTION_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown fault options: {sorted(unknown)}")
    return {
        "scheduler": scheduler,
        "cluster": cluster,
        "seed": seed,
        "profiling_mode": profiling_mode,
        "max_hours": max_hours,
        "node_failure_rate": node_failure_rate,
        "resilient": resilient,
        "invariants": invariants,
        "health": health,
        "scheduler_options": dict(scheduler_options or {}),
        "fault_options": options,
        "jobs": [io.job_to_dict(job) for job in jobs],
    }


def simulator_from_spec(spec: dict[str, Any], *,
                        cluster: Cluster | None = None,
                        health: bool | None = None,
                        tracer: Tracer | None = None,
                        checkpoint: CheckpointConfig | None = None,
                        ) -> Simulator:
    """Build the simulator a ``run_spec`` describes: a fresh scheduler,
    fresh fault models and fresh jobs on every call.

    ``cluster`` substitutes a (delta-edited) cluster for the recorded
    preset; ``health`` forces the gray-failure defense on/off regardless of
    what the recipe says (None keeps it).  ``tracer`` and ``checkpoint``
    are run plumbing, not part of the recipe.
    """
    if not spec:
        raise ValueError(
            "result carries no run_spec — it was saved by an older build; "
            "re-run `repro run --out ...` to record a forkable result")
    if cluster is None:
        cluster = presets.by_name(spec["cluster"])
    scheduler = forklib.make_scheduler(
        spec["scheduler"], resilient=spec["resilient"],
        **spec["scheduler_options"])
    jobs = [io.job_from_dict(data) for data in spec["jobs"]]
    if health is None:
        health = spec["health"]
    config = SimulatorConfig(
        profiling_mode=ProfilingMode(spec["profiling_mode"]),
        seed=spec["seed"], max_hours=spec["max_hours"],
        node_failure_rate=spec["node_failure_rate"],
        fault_models=forklib.make_fault_models(spec["fault_options"]),
        resilient=spec["resilient"], invariants=spec["invariants"],
        health=HealthConfig() if health else None,
        tracer=tracer, checkpoint=checkpoint)
    return Simulator(cluster, scheduler, jobs, config)


# -- fork-state acquisition ----------------------------------------------------

def fork_state(spec: dict[str, Any], at_round: int, *,
               checkpoint_dir: str | Path | None = None) -> CheckpointState:
    """The engine state at exactly ``at_round`` rounds, ready to fork.

    Recomputed deterministically from the spec, fast-forwarded from the
    newest valid checkpoint at or before the fork round in
    ``checkpoint_dir`` when there is one (corrupt files are skipped; with
    none usable the fork recomputes from round 0, slower but equivalent).
    The returned state is an independent deep copy (via the checkpoint
    serializer), so mutating it for one fork cannot contaminate another.
    """
    simulator = simulator_from_spec(spec)
    resume = None
    if checkpoint_dir is not None:
        try:
            resume, _, _ = ckpt.latest_valid_checkpoint(
                checkpoint_dir, max_round=at_round)
        except ckpt.CheckpointError:
            pass
    state = simulator.run_to_round(at_round, resume_from=resume)
    return ckpt.loads_state(ckpt.dumps_state(state))


# -- override application ------------------------------------------------------

def _swap_policy(state: CheckpointState, policy: str,
                 spec: dict[str, Any]) -> None:
    """Replace the scheduler in a restored state, preserving cadence.

    Pollux swaps (either direction) are rejected: admitted jobs keep the
    estimators the base scheduler built, and Pollux's are type-blind (one
    fit pooled over every GPU type) while the others' are per-type, so
    the swapped-in policy would plan on the other policy's knowledge.
    """
    base_name = spec["scheduler"]
    if ("pollux" in (policy, base_name)) and policy != base_name:
        raise ValueError(
            f"cannot swap {base_name!r} -> {policy!r} mid-run: admitted "
            "jobs keep the base scheduler's estimators, and pollux's are "
            "type-blind where the others' are per-type")
    round_duration = state.scheduler.round_duration
    scheduler = forklib.make_scheduler(
        policy, resilient=spec["resilient"],
        **{**spec["scheduler_options"], "round_duration": round_duration})
    # Keep the base run's round cadence even for schedulers whose ctor
    # fixes their own (gavel et al. default to 360s): the two futures must
    # tick on the same clock for round-by-round alignment.
    scheduler.round_duration = round_duration
    state.scheduler = scheduler
    state.scheduler_name = scheduler.name
    state.result.scheduler_name = scheduler.name


def apply_overrides(state: CheckpointState, overrides: ReplayOverrides,
                    spec: dict[str, Any]) -> Cluster | None:
    """Mutate a fork state per the overrides; returns the delta-edited
    cluster when one was requested (None = keep the recorded preset)."""
    cluster: Cluster | None = None
    if overrides.cluster_delta is not None:
        base_cluster = presets.by_name(spec["cluster"])
        deltas = forklib.parse_cluster_delta(overrides.cluster_delta)
        cluster, removed = forklib.apply_cluster_delta(base_cluster, deltas)
        # The restore-time structural check must accept the edited cluster.
        state.cluster_signature = cluster.signature
        # Jobs holding GPUs on removed nodes lose them at the fork
        # boundary (a fault-caused restart when they next get resources).
        for rt in state.active.values():
            if rt.allocation is not None \
                    and removed & set(rt.allocation.node_ids):
                rt.evict()
    if overrides.policy is not None:
        _swap_policy(state, overrides.policy, spec)
    if overrides.solver_backend is not None:
        forklib.rebind_solver(state.scheduler, overrides.solver_backend)
    if overrides.fault_seed is not None:
        forklib.reseed_fault_models(state.fault_models,
                                    overrides.fault_seed)
    return cluster


# -- metric deltas -------------------------------------------------------------

def _jct_hours(result: SimulationResult, record: Any) -> float | None:
    if record.finish_time is None:
        return None
    return record.jct() / 3600.0


def _metric_deltas(base: SimulationResult, fork: SimulationResult,
                   ) -> tuple[list[MetricDelta],
                              dict[str, dict[str, float | None]]]:
    """The headline outcome deltas plus per-job JCT/queue-wait pairs."""
    base_waits = queue_wait_by_job(base)
    fork_waits = queue_wait_by_job(fork)
    ledger_axis = aligned_ledger_deltas(GoodputLedger.from_result(base),
                                        GoodputLedger.from_result(fork))
    base_goodput = (sum(b for _, b, _ in ledger_axis) / len(ledger_axis)
                    if ledger_axis else 0.0)
    fork_goodput = (sum(f for _, _, f in ledger_axis) / len(ledger_axis)
                    if ledger_axis else 0.0)

    def _p99_wait(waits: dict[str, float]) -> float:
        values = list(waits.values())
        return percentile(values, 99) / 3600.0 if values else 0.0

    def _avg_jct(result: SimulationResult) -> float:
        jcts = result.jcts_hours()
        return sum(jcts) / len(jcts) if jcts else 0.0

    def _p99_jct(result: SimulationResult) -> float:
        jcts = result.jcts_hours()
        return percentile(jcts, 99) if jcts else 0.0

    metrics = [
        MetricDelta("completed_jobs",
                    float(len(base.completed_jobs)),
                    float(len(fork.completed_jobs))),
        MetricDelta("avg_jct_hours", _avg_jct(base), _avg_jct(fork)),
        MetricDelta("p99_jct_hours", _p99_jct(base), _p99_jct(fork)),
        MetricDelta("makespan_hours", base.makespan_hours,
                    fork.makespan_hours),
        MetricDelta("p99_queue_wait_hours", _p99_wait(base_waits),
                    _p99_wait(fork_waits)),
        MetricDelta("avg_round_goodput", base_goodput, fork_goodput),
        MetricDelta("migrations",
                    float(sum(j.num_migrations for j in base.jobs)),
                    float(sum(j.num_migrations for j in fork.jobs))),
        MetricDelta("preemptions",
                    float(sum(j.num_preemptions for j in base.jobs)),
                    float(sum(j.num_preemptions for j in fork.jobs))),
        MetricDelta("restarts",
                    float(sum(j.num_restarts for j in base.jobs)),
                    float(sum(j.num_restarts for j in fork.jobs))),
        MetricDelta("fault_recovery_hours",
                    fault_recovery_seconds(base.allocation_events()) / 3600.0,
                    fault_recovery_seconds(fork.allocation_events()) / 3600.0),
    ]

    job_deltas: dict[str, dict[str, float | None]] = {}
    base_jobs = {j.job_id: j for j in base.jobs}
    fork_jobs = {j.job_id: j for j in fork.jobs}
    for job_id in sorted(set(base_jobs) | set(fork_jobs)):
        base_rec, fork_rec = base_jobs.get(job_id), fork_jobs.get(job_id)
        job_deltas[job_id] = {
            "base_jct": _jct_hours(base, base_rec) if base_rec else None,
            "fork_jct": _jct_hours(fork, fork_rec) if fork_rec else None,
            "base_queue_wait": base_waits.get(job_id),
            "fork_queue_wait": fork_waits.get(job_id),
        }
    return metrics, job_deltas


# -- the engine ----------------------------------------------------------------

def replay(base: SimulationResult, at_round: int,
           overrides: ReplayOverrides | None = None, *,
           checkpoint_dir: str | Path | None = None,
           spec: dict[str, Any] | None = None) -> ReplayOutcome:
    """Fork ``base`` at ``at_round``, run the alternate future, diff them.

    ``base`` must carry a ``run_spec`` (results saved by this build do), or
    one must be passed explicitly.  With zero overrides the fork replays
    the base run exactly and ``outcome.diff.identical`` is True — that is
    the correctness oracle, checked through the same strict comparator the
    checkpoint-resume tests use.
    """
    overrides = overrides or ReplayOverrides()
    spec = spec if spec is not None else getattr(base, "run_spec", None)
    if not spec:
        raise ValueError(
            "result carries no run_spec — it was saved by an older build; "
            "re-run `repro run --out ...` to record a forkable result, or "
            "pass spec= explicitly")
    if at_round >= len(base.rounds):
        raise ValueError(
            f"fork round {at_round} is past the base run "
            f"({len(base.rounds)} rounds recorded)")

    state = fork_state(spec, at_round, checkpoint_dir=checkpoint_dir)
    cluster = apply_overrides(state, overrides, spec)
    health = {"on": True, "off": False, None: None}[overrides.health]
    simulator = simulator_from_spec(spec, cluster=cluster, health=health)
    fork_result = simulator.run(resume_from=state)

    mismatches = diff_results(base, fork_result)
    round_deltas, divergence = compare_runs(base, fork_result)
    metrics, job_deltas = _metric_deltas(base, fork_result)
    diff = RunDiff(
        fork_round=at_round,
        overrides=overrides.as_dict(),
        base_scheduler=base.scheduler_name,
        fork_scheduler=fork_result.scheduler_name,
        base_rounds=len(base.rounds),
        fork_rounds=len(fork_result.rounds),
        mismatches=mismatches[:MAX_MISMATCHES],
        divergence=divergence,
        round_deltas=round_deltas,
        metrics=metrics,
        job_deltas=job_deltas)
    return ReplayOutcome(diff=diff, base=base, fork=fork_result)
