"""Discrete-time trace-driven cluster simulator (Section 4.2).

Time advances in scheduler rounds.  Arrived jobs are admitted between
rounds (creating and, in Bootstrap mode, profiling their Goodput
Estimators).  Each round then runs these phases in order, each under a span
of its name that is a direct child of ``round``
(:data:`repro.obs.tracer.ROUND_PHASES`):

* ``faults`` (with fault models) — down nodes evict their jobs to the last
  epoch checkpoint, crashed jobs roll back in place, stragglers slow the
  executor's ground-truth rates, gray nodes slow them *silently*;
* ``health`` (with the health layer) — drain jobs off quarantined nodes
  and filter those nodes from the scheduler's view;
* ``plan`` — the scheduler's :class:`~repro.schedulers.base.RoundPlan` over
  the surviving nodes, carried forward on failure when
  ``SimulatorConfig.resilient`` is set; its wall time is the round's
  ``solve_time`` (Figure 9);
* ``apply`` — allocation changes, charging per-model checkpoint-restore
  delays (the paper replaced the original simulator's constant delay — so
  do we); restores may fail and gang launches may flap;
* ``audit`` — classify each job's allocation change;
* ``advance`` — the executor runs the batch plan the scheduler rated the
  allocation with, from the job's *estimated* models (looked up on a
  carried-forward round, whose plan carries none), progress accrues at the
  *ground-truth* goodput of that plan, and observations flow back to the
  estimator (the refinement loop of Figure 3);
* ``close`` — metrics, health gauges and finished-job records.

The health tick, the invariant audit and the metrics snapshot run directly
under ``round``.

Jobs complete mid-round when their integrated goodput reaches the target;
their GPUs free up at the start of the next round (matching round-based
schedulers).  A configurable time cap guards against starvation; jobs still
active at the cap are reported as censored.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cluster.cluster import Cluster
from repro.core.health import HealthConfig, HealthTracker, placement_backoff
from repro.core.types import Allocation, ProfilingMode
from repro.jobs.job import Job
from repro.obs import audit
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.goodput import BatchPlan
from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   carry_forward_plan)
from repro.sim import checkpoint as ckpt
from repro.sim.checkpoint import (CheckpointConfig, CheckpointError,
                                  CheckpointState)
from repro.sim.executor import ExecutionModel, RoundExecution
from repro.sim.faults import (FaultContext, FaultModel, NodeCrashModel,
                              fault_model_seed, observation_taps,
                              slowest_node)
from repro.sim.invariants import MODES as INVARIANT_MODES
from repro.sim.invariants import InvariantChecker
from repro.sim.telemetry import (FaultEvent, JobRecord, RoundRecord,
                                 SimulationResult)

#: epoch-checkpoint granularity: jobs checkpoint progress every
#: 1/EPOCHS_PER_JOB of their work (Section 3.5: "after every epoch, Sia
#: checkpoints model weights and optimizer states to disk").
EPOCHS_PER_JOB = 30


@dataclass
class SimulatorConfig:
    """Simulation knobs."""

    profiling_mode: ProfilingMode = ProfilingMode.BOOTSTRAP
    seed: int = 0
    #: per-measurement jitter on reported iteration times (lognormal sigma).
    obs_noise: float = 0.0
    #: fixed per-(job, GPU type) hardware speed variability (lognormal sigma).
    rate_noise: float = 0.0
    #: hard simulation cap, hours.
    max_hours: float = 1000.0
    #: worker-failure injection: expected failures per node-hour (0 = off).
    #: Shorthand for appending a NodeCrashModel to ``fault_models``.
    node_failure_rate: float = 0.0
    #: composable fault injectors (see :mod:`repro.sim.faults`); models
    #: without an explicit seed are bound to one derived from ``seed``.
    fault_models: list[FaultModel] = field(default_factory=list)
    #: catch scheduler exceptions / invalid plans and carry forward the
    #: previous round instead of aborting the run.
    resilient: bool = False
    #: observability tracer carried on the simulation context: injected into
    #: the scheduler and executor, records round/plan/phase spans.  None
    #: keeps the near-zero-cost no-op tracer.
    tracer: Tracer | None = None
    #: crash-safety: when set, the engine writes an atomic, checksummed
    #: checkpoint of its complete state every ``checkpoint.every_rounds``
    #: rounds; ``Simulator.run(resume_from=...)`` continues from one
    #: bit-identically (see :mod:`repro.sim.checkpoint`).
    checkpoint: CheckpointConfig | None = None
    #: round-level invariant auditing (:mod:`repro.sim.invariants`):
    #: 'off' (default) or 'strict' (raise InvariantError on the first
    #: violation).
    invariants: str = "off"
    #: gray-failure defense (:mod:`repro.core.health`): when set, a
    #: HealthTracker scores nodes from realized-vs-estimated goodput and
    #: placement-failure history, quarantines flaky nodes out of the
    #: scheduler's cluster view, and discounts probation nodes' goodputs.
    #: Its state (scores, backoffs) is part of the engine checkpoint.
    health: HealthConfig | None = None
    #: live telemetry hooks (:mod:`repro.obs.stream`): objects with
    #: ``on_round(result, round_index, dt)`` / ``on_finalize(result)`` /
    #: ``close()``, invoked after every recorded round and at run end.
    #: Observers are read-only with respect to simulation state (the
    #: determinism contract) and are never checkpointed — a resumed run's
    #: observers catch up from the restored ``result.rounds``.
    observers: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.invariants not in INVARIANT_MODES:
            raise ValueError(
                f"invariants must be one of {INVARIANT_MODES}, "
                f"got {self.invariants!r}")


@dataclass
class _JobRuntime:
    """Mutable per-job simulation state."""

    job: Job
    estimator: object
    progress: float = 0.0
    allocation: Allocation | None = None
    restart_remaining: float = 0.0
    num_restarts: int = 0
    #: scheduler-decided resource losses while running (audit: PREEMPT).
    num_preemptions: int = 0
    #: moves while running — type change or node move (audit: MIGRATE).
    num_migrations: int = 0
    #: True from a fault eviction/crash until the job holds GPUs again,
    #: so re-acquiring resources classifies as RESTART_AFTER_FAULT.
    lost_to_fault: bool = False
    #: consecutive failed launch attempts (drives the placement-retry
    #: backoff; reset by the first successful launch).
    placement_failures: int = 0
    first_start: float | None = None
    finish_time: float | None = None
    gpu_seconds: dict[str, float] = field(default_factory=dict)
    contention_sum: float = 0.0
    contention_rounds: int = 0

    def charge_gpus(self, seconds: float) -> None:
        if self.allocation is None or seconds <= 0:
            return
        gpu_type = self.allocation.gpu_type
        amount = self.allocation.num_gpus * seconds
        self.gpu_seconds[gpu_type] = self.gpu_seconds.get(gpu_type, 0.0) + amount

    def evict(self) -> None:
        """Take the job's GPUs away after a fault, a drain or a removed
        node: it restarts from its checkpoint, and its next grant counts
        as a fault restart."""
        self.allocation = None
        self.restart_remaining = 0.0
        self.num_restarts += 1
        self.lost_to_fault = True


def _audit_alloc(allocation: Allocation | None,
                 ) -> tuple[str, int, tuple[int, ...]] | None:
    """An allocation as the (dependency-free) audit classifier sees it."""
    if allocation is None:
        return None
    return (allocation.gpu_type, allocation.num_gpus, allocation.node_ids)


@dataclass
class _Round:
    """Values that live for one round: ``_run_round`` creates one and drops
    it when the round ends, so none of them is ever checkpointed."""

    index: int
    now: float
    dt: float
    #: the audit's "before" side: what a job held at the start of the
    #: round, recorded by the first change to its allocation.
    held: dict[str, Allocation | None] = field(default_factory=dict)
    #: ids of jobs a fault or a drain evicted, or a fault crashed.
    fault_hit: set[str] = field(default_factory=set)
    #: the round's fault events, in the order they happened.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: job id -> straggler speed factor (< 1.0).
    speed: dict[str, float] = field(default_factory=dict)
    #: node id -> silent gray-failure speed factor: applied to the
    #: executor's ground truth at advance time — by node, so migrating off
    #: a gray node helps immediately — but masked from the observations
    #: the estimator sees.
    gray: dict[int, float] = field(default_factory=dict)
    #: the fault models a report passes through on its way to the
    #: estimator (:func:`~repro.sim.faults.observation_taps`), found at
    #: the start of ``advance``.
    taps: list[FaultModel] = field(default_factory=list)

    def evict(self, job_id: str, rt: _JobRuntime) -> None:
        """Evict a job after a fault or a drain, noting what it held."""
        self.held.setdefault(job_id, rt.allocation)
        rt.evict()
        self.fault_hit.add(job_id)


class Simulator:
    """Runs one (cluster, scheduler, job list) experiment.

    Every mutable value of the run lives in :attr:`state`, the same
    :class:`CheckpointState` a checkpoint writes and a resume adopts."""

    def __init__(self, cluster: Cluster, scheduler: Scheduler,
                 jobs: list[Job], config: SimulatorConfig | None = None):
        if not jobs:
            raise ValueError("need at least one job")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        self.cluster = cluster
        self.config = config or SimulatorConfig()
        #: observability: one tracer carried through scheduler + executor,
        #: one metrics registry snapshotted per round.  The registry is
        #: kept for the simulator's life (a restore refills it), so
        #: observers built on it before ``run`` stay live.
        self.tracer = self.config.tracer or NULL_TRACER
        self.metrics = MetricsRegistry()
        # Fault subsystem: legacy node_failure_rate becomes a NodeCrashModel
        # seeded exactly as the old inline sampler (seed + 1) so existing
        # configs reproduce bit-identical runs.
        fault_models: list[FaultModel] = []
        if self.config.node_failure_rate > 0:
            fault_models.append(NodeCrashModel(
                rate=self.config.node_failure_rate,
                seed=self.config.seed + 1))
        for idx, model in enumerate(self.config.fault_models):
            # Re-seeding also resets the model's state for reuse.
            model.bind(model.seed if model.seed is not None
                       else fault_model_seed(self.config.seed, idx))
            fault_models.append(model)
        #: the complete mutable engine state; a checkpoint is a snapshot
        #: of it.
        self.state = CheckpointState(
            round_index=0, now=0.0, arrival_idx=0,
            arrivals=sorted(jobs, key=lambda j: (j.submit_time, j.job_id)),
            active={}, finished=[],
            result=SimulationResult(
                scheduler_name=scheduler.name,
                cluster_description=cluster.describe()),
            execution=ExecutionModel(seed=self.config.seed,
                                     rate_noise=self.config.rate_noise,
                                     obs_noise=self.config.obs_noise),
            fault_models=fault_models,
            scheduler=scheduler,
            metrics=self.metrics,
            invariants=(InvariantChecker()
                        if self.config.invariants == "strict" else None),
            health=(HealthTracker(self.config.health)
                    if self.config.health is not None else None),
            cluster_signature=cluster.signature)
        self._bind_observability()

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler planning the run (a resume adopts the
        checkpoint's)."""
        return self.state.scheduler

    def _bind_observability(self) -> None:
        """(Re-)inject the live tracer/metrics into every engine layer.

        Called at construction and again after a checkpoint restore —
        checkpoints strip tracers (host wall-clock state) and the restored
        scheduler/health tracker must see this process's sinks, not the
        ones from the crashed run.
        """
        state = self.state
        state.scheduler.tracer = self.tracer
        state.scheduler.metrics = self.metrics
        state.execution.tracer = self.tracer
        if state.health is not None:
            state.health.tracer = self.tracer
            state.health.metrics = self.metrics

    # -- main loop -------------------------------------------------------------

    def run(self, resume_from: str | Path | CheckpointState | None = None,
            ) -> SimulationResult:
        """Run the simulation to completion.

        ``resume_from`` continues a previous run from a checkpoint instead
        of starting fresh: pass a checkpoint file path, a checkpoint
        *directory* (the newest valid checkpoint is used, falling back past
        corrupted files), or an in-memory :class:`CheckpointState`.  The
        restored state replaces this simulator's scheduler, fault models
        and execution model wholesale, its metric values refill this
        simulator's registry, and the continued run is bit-identical to
        the uninterrupted one (wall-clock-derived telemetry —
        ``solve_time`` and timing metrics — excepted).
        """
        if resume_from is not None:
            self._restore(resume_from)
        try:
            self._run_loop(max_rounds=None)
        except BaseException:
            # Crashed (or interrupted) mid-run: close stream observers
            # without finalizing, leaving their flushed ``.part`` prefixes
            # on disk for post-mortem reads.
            for observer in self.config.observers:
                observer.close()
            raise
        return self._finalize()

    def run_to_round(self,
                     round_index: int,
                     resume_from: str | Path | CheckpointState | None = None,
                     ) -> CheckpointState:
        """Run (or resume) until exactly ``round_index`` rounds are recorded
        and return a snapshot of the engine state at that boundary — the
        counterfactual fork entry point (:mod:`repro.analysis.replay`).

        The returned state is the same shape a disk checkpoint holds, so it
        can be handed to another simulator's ``run(resume_from=...)`` to
        play out an alternate future.  Raises ``ValueError`` when the run
        ends (all jobs finished, or the time cap hit) before reaching the
        requested round, and when resuming from a checkpoint that is
        already past it.
        """
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        if resume_from is not None:
            self._restore(resume_from)
            recorded = len(self.state.result.rounds)
            if recorded > round_index:
                raise ValueError(
                    f"checkpoint is already at round {recorded}, past the "
                    f"requested fork round {round_index}")
        self._run_loop(max_rounds=round_index)
        recorded = len(self.state.result.rounds)
        if recorded < round_index:
            raise ValueError(
                f"run ended after {recorded} rounds, before the requested "
                f"fork round {round_index}")
        return self._snapshot()

    def _run_loop(self, max_rounds: int | None) -> None:
        """The main loop: admit, run rounds, checkpoint.  Stops at the time
        cap, when no work remains, or after ``max_rounds`` recorded rounds
        (``None`` = unbounded)."""
        state = self.state
        result, active, arrivals = state.result, state.active, state.arrivals
        dt = state.scheduler.round_duration
        cap = self.config.max_hours * 3600.0

        while (state.arrival_idx < len(arrivals) or active) \
                and state.now < cap \
                and (max_rounds is None or len(result.rounds) < max_rounds):
            if (state.arrival_idx < len(arrivals)
                    and arrivals[state.arrival_idx].submit_time <= state.now):
                with self.tracer.span("admit"):
                    while (state.arrival_idx < len(arrivals)
                           and arrivals[state.arrival_idx].submit_time
                           <= state.now):
                        job = arrivals[state.arrival_idx]
                        state.arrival_idx += 1
                        estimator = state.scheduler.make_estimator(
                            job, self.cluster, self.config.profiling_mode)
                        estimator.profile_initial()
                        active[job.job_id] = _JobRuntime(job=job,
                                                         estimator=estimator)

            if not active:
                # idle until the next arrival, quantized to rounds
                next_arrival = arrivals[state.arrival_idx].submit_time
                rounds_ahead = max(1, int((next_arrival - state.now) // dt))
                state.now += rounds_ahead * dt
                continue

            index = len(result.rounds)
            with self.tracer.span("round", index=index, time=state.now,
                                  active_jobs=len(active)):
                record = self._run_round(_Round(index, state.now, dt))
            result.rounds.append(record)
            state.now += dt
            # Live telemetry fires on the *recorded* round, before the
            # checkpoint/crash hooks — so a kill at the round boundary has
            # already flushed this round's stream lines.
            for observer in self.config.observers:
                observer.on_round(result, index, dt)
            self._maybe_checkpoint(index + 1)
            self._crash_point("round_end", index + 1)

    def _finalize(self) -> SimulationResult:
        """Finalize records — censored *and* never-admitted jobs included,
        so the per-job records always sum to the input trace size."""
        state = self.state
        result = state.result
        result.end_time = state.now
        result.node_failures = result.fault_counts().get(NodeCrashModel.kind,
                                                         0)
        result.jobs.extend(state.finished)
        for rt in state.active.values():
            result.jobs.append(self._record(rt))
        # Jobs whose submit time fell past the cap never reached admission;
        # record them as never-started so totals reconcile against the trace.
        never_admitted = state.arrivals[state.arrival_idx:]
        for job in never_admitted:
            result.jobs.append(JobRecord(
                job_id=job.job_id, model_name=job.model_name,
                category=job.profile.category,
                adaptivity=job.adaptivity.value,
                submit_time=job.submit_time, first_start=None,
                finish_time=None, num_restarts=0,
                target_samples=job.target_samples))
        result.censored = len(state.active) + len(never_admitted)
        result.jobs.sort(key=lambda r: (r.submit_time, r.job_id))
        result.spans = list(self.tracer.spans)
        result.final_metrics = self.metrics.snapshot()
        for observer in self.config.observers:
            observer.on_finalize(result)
        return result

    # -- checkpoint/restore ----------------------------------------------------

    def _crash_point(self, stage: str, round_index: int) -> None:
        hook = self.config.checkpoint.crash_hook if self.config.checkpoint \
            else None
        if hook is not None:
            hook(stage, round_index)

    def _maybe_checkpoint(self, round_index: int) -> None:
        cfg = self.config.checkpoint
        if cfg is None or cfg.every_rounds <= 0 \
                or round_index % cfg.every_rounds != 0:
            return
        self.save_checkpoint()

    def save_checkpoint(self) -> Path:
        """Write a checkpoint of the current state to the configured
        directory (atomic + checksummed), pruning old ones; returns the
        path written."""
        cfg = self.config.checkpoint
        if cfg is None:
            raise CheckpointError(
                "no CheckpointConfig on SimulatorConfig.checkpoint")
        state = self._snapshot()
        path = ckpt.checkpoint_path(cfg.directory, state.round_index)
        write_hook = None
        if cfg.crash_hook is not None:
            round_index = state.round_index
            hook = cfg.crash_hook

            def write_hook(stage: str) -> None:
                hook(stage, round_index)
        with self.tracer.span("checkpoint", round=state.round_index):
            self.state.segments = ckpt.write_checkpoint(
                state, path, crash_hook=write_hook)
        self.metrics.counter("checkpoint.writes").inc()
        ckpt.prune_checkpoints(cfg.directory, cfg.keep)
        return path

    def _snapshot(self) -> CheckpointState:
        """The engine state at the current between-rounds boundary."""
        return replace(self.state,
                       round_index=len(self.state.result.rounds))

    def _restore(self, source: str | Path | CheckpointState) -> None:
        """Adopt a checkpoint's state wholesale; see :meth:`run`."""
        source_dir = None
        skipped: list[Path] = []
        if isinstance(source, CheckpointState):
            state = source
        else:
            path = Path(source)
            if path.is_dir():
                source_dir = path
                state, used, skipped = ckpt.latest_valid_checkpoint(path)
            else:
                source_dir = path.parent
                state = ckpt.read_checkpoint(path)
        ours = self.cluster.signature
        if state.cluster_signature and state.cluster_signature != ours:
            raise CheckpointError(
                "checkpoint was taken on a structurally different cluster "
                f"({state.cluster_signature} != {ours})")
        # Later writes append to the restored manifest only when they go
        # to the directory its segments are in; anywhere else (or from an
        # in-memory state) the first write covers every round from 0.
        cfg = self.config.checkpoint
        same_dir = source_dir is not None and cfg is not None \
            and source_dir.resolve() == Path(cfg.directory).resolve()
        # The restored checker keeps its accumulated per-job tracking, but
        # this run's config decides whether it is used.
        invariants = None
        if self.config.invariants == "strict":
            invariants = state.invariants or InvariantChecker()
        # Same posture for the health tracker: its scores/backoffs resume
        # from the checkpoint (bit-identical quarantine decisions), but
        # only when this run's config keeps the layer on.
        health = None
        if self.config.health is not None:
            health = state.health or HealthTracker(self.config.health)
        self.metrics.restore(state.metrics)
        self.state = replace(
            state, metrics=self.metrics, invariants=invariants,
            health=health, cluster_signature=ours,
            segments=state.segments if same_dir else ())
        self._bind_observability()
        if skipped:
            self.tracer.instant(
                "checkpoint_fallback", used=used.name,
                skipped=",".join(p.name for p in skipped))
            self.metrics.counter("checkpoint.corrupt_skipped") \
                .inc(len(skipped))
        self.metrics.counter("checkpoint.restores").inc()
        self.tracer.instant("checkpoint_restore",
                            round=state.round_index, time=state.now)

    # -- the round's phases ----------------------------------------------------

    def _run_round(self, rnd: _Round) -> RoundRecord:
        """One round: the engine phases in order, each under its own span.

        The health tick, the invariant audit and the metrics snapshot run
        directly under ``round``, never inside a phase span, so a timer
        wrapped around any of them sees round-level time only."""
        span = self.tracer.span
        state = self.state
        active = state.active
        cluster_view = self.cluster
        if state.fault_models:
            with span("faults", models=len(state.fault_models)):
                cluster_view = self._inject_faults(rnd)
        quarantined: frozenset[int] = frozenset()
        if state.health is not None:
            state.health.tick(rnd.now)
            with span("health"):
                cluster_view, quarantined = self._filter_health(
                    rnd, cluster_view)
        with span("plan", scheduler=state.scheduler.name, jobs=len(active)):
            start = time.perf_counter()
            plan = self._plan(cluster_view, rnd.now)
            solve_time = time.perf_counter() - start
        with span("apply"):
            self._apply(plan, rnd)
        with span("audit"):
            record = RoundRecord(
                time=rnd.now, active_jobs=len(active), running_jobs=0,
                solve_time=solve_time, backend=plan.backend,
                degraded=plan.backend == "carry",
                fault_events=rnd.fault_events,
                estimates={jid: est for jid, est in plan.estimates.items()
                           if jid in active})
            self._audit(rnd, record)
        with span("advance"):
            done = self._advance_jobs(rnd, record, plan)
        with span("close"):
            self._close(record, done)
        if state.invariants is not None:
            # Audit over the real engine state: still-active runtimes plus
            # the ones that finished this round.
            state.invariants.check_round(
                round_index=rnd.index, cluster_view=cluster_view,
                record=record,
                runtimes=itertools.chain(active.values(), done.values()),
                fault_hit=rnd.fault_hit, done_ids=list(done),
                quarantined=quarantined)
        record.metrics = self.metrics.snapshot()
        return record

    def _filter_health(self, rnd: _Round, cluster_view: Cluster,
                       ) -> tuple[Cluster, frozenset[int]]:
        """The ``health`` phase (gray-failure defense): drain jobs still
        holding GPUs on a node the health tracker excludes (a controlled
        checkpoint-off, classified as fault-caused), and hand the scheduler
        a view without those nodes plus the probation-node goodput
        discounts.  Returns (filtered view, excluded node ids)."""
        health = self.state.health
        cluster_view = health.healthy_view(cluster_view, rnd.now)
        quarantined = health.excluded_nodes()
        if quarantined:
            for job_id, rt in self.state.active.items():
                if rt.allocation is not None and any(
                        nid in quarantined for nid in rt.allocation.node_ids):
                    health.note_eviction(job_id, rt.allocation.node_ids,
                                         rnd.now)
                    rnd.evict(job_id, rt)
        self.state.scheduler.health_discounts = \
            health.type_discounts(cluster_view) or None
        return cluster_view, quarantined

    def _plan(self, cluster_view: Cluster, now: float) -> RoundPlan:
        """The ``plan`` phase: ask the scheduler for a validated plan over
        the surviving nodes, carrying the previous round forward if that
        fails on a resilient run."""
        active = self.state.active
        previous = {jid: rt.allocation for jid, rt in active.items()
                    if rt.allocation is not None}
        views = [self._view(rt, now) for rt in active.values()]
        try:
            plan = self.state.scheduler.decide(views, cluster_view, previous,
                                               now)
            plan.validate(cluster_view)
        except Exception as exc:
            if not self.config.resilient:
                raise
            # One bad round must not kill the run: keep the previous
            # round's still-feasible allocations.
            self.metrics.counter("caught_scheduler_failures").inc()
            with self.tracer.span("carry_forward", error=type(exc).__name__):
                plan = carry_forward_plan(previous, cluster_view, views)
        return plan

    def _apply(self, plan: RoundPlan, rnd: _Round) -> None:
        """The ``apply`` phase: apply the plan's allocation changes,
        charging model-specific restore delays; then jobs paying a restore
        may fail it and owe the delay again, and a changed allocation is a
        gang launch that may flap (see :meth:`_sample_placement_failures`).
        """
        active = self.state.active
        launch_attempts: list[tuple[str, Allocation]] = []
        for job_id, rt in active.items():
            new = plan.allocations.get(job_id)
            if new == rt.allocation:
                continue
            rnd.held.setdefault(job_id, rt.allocation)
            if rt.allocation is not None:
                rt.num_restarts += 1
            if new is not None:
                rt.restart_remaining = rt.job.restart_delay
                if rt.first_start is None:
                    rt.first_start = rnd.now
                launch_attempts.append((job_id, new))
            else:
                # A stale restore delay must never leak into the job's next
                # allocation.
                rt.restart_remaining = 0.0
            rt.allocation = new

        fault_models = self.state.fault_models
        if not fault_models:
            return
        restoring = sorted(
            jid for jid, rt in active.items()
            if rt.allocation is not None and rt.restart_remaining > 0)
        if restoring:
            for model in fault_models:
                for event in model.sample_restore_failures(restoring,
                                                           rnd.now):
                    job_id = event.target.split(":", 1)[-1]
                    rt = active[job_id]
                    rt.restart_remaining += rt.job.restart_delay
                    rt.num_restarts += 1
                    rnd.fault_events.append(event)
        if launch_attempts:
            launch_attempts.sort()
            self._sample_placement_failures(launch_attempts, rnd)

    def _audit(self, rnd: _Round, record: RoundRecord) -> None:
        """The ``audit`` phase: diff what each job held at the start of the
        round against what it holds now and classify the change (admit,
        scale, migrate, preempt, resume, restart-after-fault)."""
        now = rnd.now
        for job_id, rt in self.state.active.items():
            event = audit.classify_change(
                job_id, now,
                held=_audit_alloc(rnd.held.get(job_id, rt.allocation)),
                new=_audit_alloc(rt.allocation),
                # A first launch this round was stamped ``now``.
                ran_before=rt.first_start is not None
                and rt.first_start < now,
                fault_hit=job_id in rnd.fault_hit or rt.lost_to_fault,
                round_index=rnd.index)
            if event is not None:
                record.events.append(event)
                if event.kind == audit.PREEMPT \
                        and event.cause == audit.CAUSE_SCHEDULER:
                    rt.num_preemptions += 1
                elif event.kind == audit.MIGRATE:
                    rt.num_migrations += 1
            if rt.allocation is not None:
                rt.lost_to_fault = False

    def _advance_jobs(self, rnd: _Round, record: RoundRecord,
                      plan: RoundPlan) -> dict[str, _JobRuntime]:
        """The ``advance`` phase: run every job holding GPUs for one round
        on the batch plan ``plan`` carries for it, and record what it used
        and delivered, and which jobs queued.  Returns the jobs that
        finished, popped from the active set."""
        active = self.state.active
        plans = plan.plans
        health = self.state.health
        contention = len(active)
        rnd.taps = observation_taps(self.state.fault_models)
        done_ids: list[str] = []
        for job_id, rt in active.items():
            rt.contention_sum += contention
            rt.contention_rounds += 1
            if rt.allocation is None:
                record.queued.append(job_id)
                continue
            record.running_jobs += 1
            config = rt.allocation.configuration()
            record.allocations[job_id] = (config.gpu_type, config.num_gpus)
            record.gpus_used[config.gpu_type] = \
                record.gpus_used.get(config.gpu_type, 0) + config.num_gpus
            done, execution = self._advance(rt, rnd, plans)
            # Ledger: the rates the executor actually delivered (zero for a
            # round fully spent restoring or unable to run).
            record.realized[job_id] = \
                execution.goodput if execution is not None else 0.0
            if execution is not None:
                record.throughputs[job_id] = execution.throughput
                # Health evidence: realized vs estimated goodput for every
                # node the job ran on.  A gray node's masked telemetry
                # keeps the estimate high while delivery sags — exactly the
                # divergence scored here.
                if health is not None:
                    estimate = record.estimates.get(job_id)
                    if estimate:
                        health.record_goodput(
                            rt.allocation.node_ids, estimate,
                            execution.goodput, rnd.now)
            if done:
                done_ids.append(job_id)
                record.events.append(audit.AllocationEvent(
                    kind=audit.FINISH, time=rt.finish_time or rnd.now,
                    job_id=job_id, from_gpu_type=config.gpu_type,
                    from_gpus=config.num_gpus, round_index=rnd.index))
        return {job_id: active.pop(job_id) for job_id in done_ids}

    def _close(self, record: RoundRecord,
               done: dict[str, _JobRuntime]) -> None:
        """The ``close`` phase: metrics, health gauges and events, and the
        finished jobs' records."""
        self._update_metrics(record)
        health = self.state.health
        if health is not None:
            counts = health.state_counts()
            self.metrics.gauge("health.probation_nodes") \
                .set(counts.get("probation", 0))
            self.metrics.gauge("health.quarantined_nodes") \
                .set(counts.get("quarantined", 0))
            self.metrics.gauge("health.drained_nodes") \
                .set(counts.get("drained", 0))
            # Drained every round, so the pending list is empty at every
            # checkpoint boundary and resumes stay bit-identical.
            record.health_events = health.drain_events()
        # A finished job only ever contributes its record again, so keep
        # that and drop the runtime (and its estimator) from the state, and
        # whatever the fault models kept for it.
        self.state.finished.extend(self._record(rt) for rt in done.values())
        for model in self.state.fault_models:
            for job_id in done:
                model.forget_job(job_id)

    def _update_metrics(self, record: RoundRecord) -> None:
        """Fold one finished round into the run's metrics registry."""
        m = self.metrics
        m.counter("rounds_planned").inc()
        if record.fault_events:
            m.counter("faults_injected").inc(len(record.fault_events))
        m.gauge("queue_depth").set(record.active_jobs - record.running_jobs)
        m.histogram("solve_time_s").observe(record.solve_time)
        for event in record.events:
            m.counter(f"alloc_events.{event.kind}").inc()
        for gpu_type, cap in self.cluster.capacities().items():
            used = record.gpus_used.get(gpu_type, 0)
            m.gauge(f"util.{gpu_type}").set(used / cap if cap else 0.0)

    # -- helpers ---------------------------------------------------------------

    def _rollback(self, rt: _JobRuntime) -> None:
        """Roll a job back to its last epoch checkpoint (Section 3.5)."""
        epoch = rt.job.target_samples / EPOCHS_PER_JOB
        rt.progress = (rt.progress // epoch) * epoch

    def _inject_faults(self, rnd: _Round) -> Cluster:
        """The ``faults`` phase: sample every fault model, apply the
        aggregate to jobs and to ``rnd``, and return the cluster view of
        the surviving nodes."""
        active = self.state.active
        fault_models = self.state.fault_models
        ctx = FaultContext(
            now=rnd.now, dt=rnd.dt, cluster=self.cluster,
            running={jid: rt.allocation for jid, rt in active.items()
                     if rt.allocation is not None},
            restoring=frozenset(jid for jid, rt in active.items()
                                if rt.allocation is not None
                                and rt.restart_remaining > 0))
        for model in fault_models:
            model.sample(ctx)
        rnd.fault_events.extend(ctx.events)

        down = set(ctx.down_until)
        if down:
            # Evict jobs touching a down node; roll back to the
            # checkpoint.
            for job_id, rt in active.items():
                if rt.allocation is None:
                    continue
                if any(nid in down for nid in rt.allocation.node_ids):
                    self._rollback(rt)
                    rnd.evict(job_id, rt)

        # Transient job crashes: roll back in place and pay a fresh
        # restore.
        for job_id in sorted(ctx.crashed_jobs):
            rt = active.get(job_id)
            if rt is None or rt.allocation is None:
                continue  # already evicted (or finished) this round
            self._rollback(rt)
            rt.restart_remaining = rt.job.restart_delay
            rt.num_restarts += 1
            rt.lost_to_fault = True
            rnd.fault_hit.add(job_id)

        # Straggler slowdowns, felt through the ground-truth rates: a
        # job runs at the pace of its slowest surviving node.
        if ctx.node_speed:
            for job_id, rt in active.items():
                if rt.allocation is None:
                    continue
                factor = slowest_node(ctx.node_speed, rt.allocation)
                if factor < 1.0:
                    rnd.speed[job_id] = factor

        # Gray failures: kept per *node* (unlike the per-job straggler
        # map) and resolved against each job's post-plan allocation at
        # advance time, so a defense-driven migration off a gray node
        # takes effect in the same round.
        rnd.gray.update(ctx.gray_speed)

        if not down:
            return self.cluster
        up_nodes = tuple(n for n in self.cluster.nodes
                         if n.node_id not in down)
        if not up_nodes:
            # Degenerate case: every node failed at once.  Repair the
            # node closest to recovery immediately so the cluster view
            # is never empty (schedulers cannot operate on zero nodes).
            first_back = min(ctx.down_until, key=ctx.down_until.get)
            for model in fault_models:
                model.revive(first_back)
            up_nodes = tuple(n for n in self.cluster.nodes
                             if n.node_id == first_back)
        return Cluster(nodes=up_nodes)

    def _view(self, rt: _JobRuntime, now: float) -> JobView:
        age = (now - rt.first_start) if rt.first_start is not None else 0.0
        config = rt.allocation.configuration() if rt.allocation else None
        return JobView(job=rt.job, estimator=rt.estimator,
                       current_config=config, age=age,
                       num_restarts=rt.num_restarts, progress=rt.progress,
                       first_start=rt.first_start)

    def _sample_placement_failures(self,
                                   attempts: list[tuple[str, Allocation]],
                                   rnd: _Round) -> None:
        """Draw placement flaps from every model and charge backoffs: a
        flapped launch keeps its grant but pays a jittered capped backoff
        (charged like restart delay) before retrying, and repeated failures
        feed the node's health score."""
        active, health = self.state.active, self.state.health
        failures = []
        for model in self.state.fault_models:
            failures.extend(model.sample_placement_failures(attempts,
                                                            rnd.now))
        failed: set[str] = set()
        for failure in failures:
            rt = active[failure.job_id]
            failed.add(failure.job_id)
            rt.placement_failures += 1
            delay = placement_backoff(rt.placement_failures, failure.job_id)
            # Charged like a restart: the GPUs are held but idle while the
            # retry backs off.
            rt.restart_remaining += delay
            self.metrics.counter("placement.retries").inc()
            rnd.fault_events.append(FaultEvent(
                kind="placement_failure", time=rnd.now,
                target=f"job:{failure.job_id}",
                detail=f"launch failed on node {failure.node_id}; "
                       f"retrying in {delay:.0f}s "
                       f"(attempt {rt.placement_failures})"))
            if health is not None:
                health.record_placement_failure(
                    failure.job_id, failure.node_id, rnd.now)
        for job_id, allocation in attempts:
            if job_id in failed:
                continue
            rt = active[job_id]
            rt.placement_failures = 0
            if health is not None:
                health.record_placement_success(allocation.node_ids)

    def _advance(self, rt: _JobRuntime, rnd: _Round,
                 plans: dict[str, BatchPlan | None],
                 ) -> tuple[bool, RoundExecution | None]:
        """Run one round for a job holding resources, on its batch plan in
        ``plans`` (the round plan's), or on one looked up from its
        estimator when the round plan carries none (a carried-forward
        round).

        Returns ``(finished, execution)`` where ``execution`` carries the
        realized rates for the goodput ledger (None when the round produced
        no progress: still restoring, or the plan could not run).
        """
        assert rt.allocation is not None
        dt = rnd.dt
        delay = min(rt.restart_remaining, dt)
        rt.restart_remaining -= delay
        run_time = dt - delay

        # The executor's batch decision, from the job's *estimated* models.
        job_id = rt.job.job_id
        if job_id in plans:
            plan = plans[job_id]
        else:
            plan = rt.estimator.best_plan(rt.allocation.configuration(),
                                          self.state.scheduler.plan_memo)
        if run_time <= 0:
            rt.charge_gpus(dt)
            return False, None
        speed = rnd.speed.get(job_id, 1.0)
        gray = slowest_node(rnd.gray, rt.allocation)
        execution = self.state.execution.execute(rt.job, rt.allocation, plan,
                                                 speed=speed * gray)
        if execution is None or execution.goodput <= 0:
            rt.charge_gpus(dt)
            return False, None

        before = rt.progress
        rt.progress = before + execution.goodput * run_time
        if rt.progress >= rt.job.target_samples:
            run_needed = (rt.job.target_samples - before) / execution.goodput
            rt.finish_time = rnd.now + delay + run_needed
            rt.charge_gpus(delay + run_needed)
            return True, execution

        rt.charge_gpus(dt)
        self._report_observation(rt, execution, gray, rnd)
        return False, execution

    def _report_observation(self, rt: _JobRuntime,
                            execution: RoundExecution, gray: float,
                            rnd: _Round) -> None:
        """Online refinement (Figure 3) with the gray/telemetry pipeline in
        between: mask gray slowdowns (the sick node reports nominal-looking
        iteration times), pass the report through every model's corruption
        tap that can change it, and count reports the estimator's defense
        rejected."""
        executor = self.state.execution
        obs = executor.observe(rt.job, rt.allocation, execution)
        if gray < 1.0 and hasattr(obs, "iter_time"):
            # Undo the slowdown in the *observation only*, so realized
            # goodput (the ledger) diverges from what telemetry claims —
            # the signal repro.core.health scores nodes by.  The visible
            # straggler part of the slowdown stays in the report.
            obs = replace(obs, iter_time=obs.iter_time * gray)
        delivered = [obs]
        for model in rnd.taps:
            passed: list = []
            for item in delivered:
                out, events = model.corrupt_observation(
                    rt.job.job_id, item, rnd.now)
                passed.extend(out)
                rnd.fault_events.extend(events)
            delivered = passed
        for item in delivered:
            accepted = rt.estimator.add_observation(item)
            if accepted is False:
                self.metrics.counter("telemetry.rejected_observations").inc()
        rt.estimator.update_gradient_stats(
            executor.observed_noise_scale(rt.job))

    def _record(self, rt: _JobRuntime) -> JobRecord:
        profiling = getattr(rt.estimator, "profiling_gpu_seconds", 0.0)
        avg_contention = (rt.contention_sum / rt.contention_rounds
                          if rt.contention_rounds else 0.0)
        return JobRecord(
            job_id=rt.job.job_id,
            model_name=rt.job.model_name,
            category=rt.job.profile.category,
            adaptivity=rt.job.adaptivity.value,
            submit_time=rt.job.submit_time,
            first_start=rt.first_start,
            finish_time=rt.finish_time,
            num_restarts=rt.num_restarts,
            num_preemptions=rt.num_preemptions,
            num_migrations=rt.num_migrations,
            gpu_seconds=dict(rt.gpu_seconds),
            profiling_gpu_seconds=profiling,
            avg_contention=avg_contention,
            target_samples=rt.job.target_samples,
        )


def simulate(cluster: Cluster, scheduler: Scheduler, jobs: list[Job],
             **kwargs) -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    config = SimulatorConfig(**kwargs)
    return Simulator(cluster, scheduler, jobs, config).run()
