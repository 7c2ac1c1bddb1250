"""Telemetry: per-job and per-round records produced by the simulator.

These records are the single source every metric and every table/figure in
the benchmark harness is computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.audit import AllocationEvent
from repro.obs.tracer import PLAN_PHASES, SpanRecord, SpanStats, span_stats


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded by the fault subsystem.

    ``kind`` is a short tag (``node_crash``, ``straggler``, ``job_crash``,
    ``restore_failure``); ``target`` names the node or job hit; ``detail``
    carries model-specific context (e.g. slowdown factor, repair time).
    """

    kind: str
    time: float
    target: str
    detail: str = ""


@dataclass
class JobRecord:
    """Final accounting for one job."""

    job_id: str
    model_name: str
    category: str
    adaptivity: str
    submit_time: float
    first_start: float | None
    finish_time: float | None
    num_restarts: int
    #: times the scheduler took the job's resources away while it was
    #: running (a strict subset of the causes behind ``num_restarts``,
    #: which also counts fault restarts and allocation changes).
    num_preemptions: int = 0
    #: times the job moved — GPU-type change or same-type node move —
    #: while running (fault-forced restarts are not migrations).
    num_migrations: int = 0
    #: GPU-seconds actually held, per GPU type (includes restore delays).
    gpu_seconds: dict[str, float] = field(default_factory=dict)
    profiling_gpu_seconds: float = 0.0
    #: average number of active jobs while this job was in the system.
    avg_contention: float = 0.0
    target_samples: float = 0.0

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    def jct(self, horizon: float | None = None) -> float:
        """Job completion time in seconds; censored jobs report time until
        ``horizon`` (the simulation end)."""
        end = self.finish_time if self.finish_time is not None else horizon
        if end is None:
            raise ValueError(f"job {self.job_id} incomplete and no horizon given")
        # Never-admitted jobs (submitted past the simulation cap) clamp to
        # zero rather than reporting a negative completion time.
        return max(0.0, end - self.submit_time)

    @property
    def total_gpu_seconds(self) -> float:
        return sum(self.gpu_seconds.values()) + self.profiling_gpu_seconds


@dataclass
class RoundRecord:
    """Snapshot of one scheduling round."""

    time: float
    #: jobs active (queued or running) when the round was planned.
    active_jobs: int
    #: jobs actually holding GPUs this round.
    running_jobs: int
    #: policy optimization wall-clock seconds (Figure 9).
    solve_time: float
    #: job id -> (gpu_type, num_gpus) for the allocation log (Figure 5).
    allocations: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: GPUs in use per type.
    gpus_used: dict[str, int] = field(default_factory=dict)
    #: solver/plan backend that produced this round ('' when the scheduler
    #: did not report one; 'carry' marks a carried-forward plan).
    backend: str = ""
    #: True when the round ran in a degraded mode (solver fallback, carried
    #: plan, or a caught scheduler failure).
    degraded: bool = False
    #: faults injected while planning this round.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: cumulative metrics snapshot (repro.obs counters/gauges/histograms)
    #: taken when the round was recorded.
    metrics: dict[str, float] = field(default_factory=dict)
    #: job id -> goodput the scheduler believed the chosen allocation would
    #: deliver when it planned this round (the goodput ledger's estimate
    #: side; absent for carried-forward plans).
    estimates: dict[str, float] = field(default_factory=dict)
    #: job id -> goodput the executor actually delivered this round (0.0
    #: for a round fully spent in checkpoint-restore).
    realized: dict[str, float] = field(default_factory=dict)
    #: job id -> realized raw throughput, samples/s.
    throughputs: dict[str, float] = field(default_factory=dict)
    #: classified allocation-change events that took effect this round
    #: (admit/scale/migrate/preempt/resume/restart/finish).
    events: list[AllocationEvent] = field(default_factory=list)
    #: node-health state transitions (probation/quarantine/reinstate/
    #: recover/drain/evict) the health tracker emitted this round
    #: (:class:`repro.core.health.HealthEvent`; empty without the layer).
    health_events: list = field(default_factory=list)
    #: SLO alerts fired on this round (:class:`repro.obs.slo.Alert`; empty
    #: unless an SLO observer was attached).  Deliberately *outside* the
    #: chaos determinism oracle's compared fields: alerts may derive from
    #: wall-clock series (round latency) and only exist on observed runs.
    alerts: list = field(default_factory=list)


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    scheduler_name: str
    cluster_description: str
    jobs: list[JobRecord] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    end_time: float = 0.0
    #: jobs that did not finish before the simulation cap.
    censored: int = 0
    #: injected worker failures that occurred during the run.
    node_failures: int = 0
    #: tracing spans recorded during the run (empty unless a Tracer was
    #: attached via SimulatorConfig; not serialized — use repro.obs.export).
    spans: list[SpanRecord] = field(default_factory=list, repr=False)
    #: final metrics snapshot at the end of the run.
    final_metrics: dict[str, float] = field(default_factory=dict)
    #: fault/backend/alert summaries restored by repro.io when the
    #: per-round records were not serialized (None while rounds are
    #: authoritative).
    saved_fault_counts: dict[str, int] | None = field(default=None,
                                                      repr=False)
    saved_backend_counts: dict[str, int] | None = field(default=None,
                                                        repr=False)
    saved_alert_counts: dict[str, int] | None = field(default=None,
                                                      repr=False)
    #: construction recipe of this run (scheduler/cluster/config/job list),
    #: recorded by the CLI and serialized by repro.io so the counterfactual
    #: replay engine can rebuild the simulator and fork it at any round.
    #: None for results produced without one (programmatic runs, old files).
    run_spec: dict | None = field(default=None, repr=False, compare=False)
    #: lazily built job_id -> record index (invalidated by length change).
    _job_index: dict[str, JobRecord] | None = field(default=None, init=False,
                                                    repr=False, compare=False)

    def job(self, job_id: str) -> JobRecord:
        index = self._job_index
        if index is None or len(index) != len(self.jobs):
            index = {record.job_id: record for record in self.jobs}
            self._job_index = index
        try:
            return index[job_id]
        except KeyError:
            raise KeyError(f"no job record for {job_id!r}") from None

    @property
    def completed_jobs(self) -> list[JobRecord]:
        return [j for j in self.jobs if j.completed]

    def jcts_hours(self) -> list[float]:
        """JCT of every job, hours (censored jobs measured to the end cap)."""
        return [j.jct(self.end_time) / 3600.0 for j in self.jobs]

    @property
    def makespan_hours(self) -> float:
        """Last finish minus first submission, hours."""
        if not self.jobs:
            return 0.0
        start = min(j.submit_time for j in self.jobs)
        end = max((j.finish_time if j.finish_time is not None else self.end_time)
                  for j in self.jobs)
        return (end - start) / 3600.0

    def gpu_hours_per_job(self) -> list[float]:
        return [j.total_gpu_seconds / 3600.0 for j in self.jobs]

    def allocation_timeline(self, job_id: str) -> list[tuple[float, str, int]]:
        """(time, gpu_type, num_gpus) per round for one job (Figure 5);
        rounds where the job held nothing are reported as ('', 0)."""
        timeline = []
        for rnd in self.rounds:
            gpu_type, count = rnd.allocations.get(job_id, ("", 0))
            timeline.append((rnd.time, gpu_type, count))
        return timeline

    def allocation_events(self) -> list[AllocationEvent]:
        """Every classified allocation-change event, in round order."""
        return [event for rnd in self.rounds for event in rnd.events]

    def median_solve_time(self) -> float:
        times = sorted(r.solve_time for r in self.rounds if r.active_jobs > 0)
        if not times:
            return 0.0
        mid = len(times) // 2
        if len(times) % 2:
            return times[mid]
        return (times[mid - 1] + times[mid]) / 2.0

    # -- observability ---------------------------------------------------------

    def phase_time_breakdown(self) -> dict[str, float]:
        """Total seconds per standard plan phase (bootstrap, goodput_eval,
        solve, placement) over the whole run.  Requires a traced run.  The
        phases nest in the engine's ``plan`` span, whose wall time each
        round records as ``solve_time``, so their totals stay below the
        summed ``solve_time``; the gap is view building, plan validation
        and any carry-forward."""
        totals = {name: 0.0 for name in PLAN_PHASES}
        for span in self.spans:
            if span.name in totals:
                totals[span.name] += span.duration
        return totals

    def span_stats(self, name: str) -> SpanStats:
        """Aggregate duration stats for every recorded span named ``name``."""
        return span_stats(self.spans, name)

    # -- robustness telemetry --------------------------------------------------

    @property
    def degraded_rounds(self) -> int:
        """Rounds that ran on a fallback/carried plan (requires rounds)."""
        return sum(1 for r in self.rounds if r.degraded)

    @property
    def total_fault_events(self) -> int:
        return sum(len(r.fault_events) for r in self.rounds)

    def _summary_counts(self, saved: dict[str, int] | None,
                        keys_of_round) -> dict[str, int]:
        """Single code path for both round summaries: rounds are the source
        of truth whenever present; otherwise the summary persisted by
        :mod:`repro.io` (``save_result(include_rounds=False)``) is used;
        otherwise the summary is empty."""
        if not self.rounds:
            return dict(saved) if saved is not None else {}
        counts: dict[str, int] = {}
        for rnd in self.rounds:
            for key in keys_of_round(rnd):
                counts[key] = counts.get(key, 0) + 1
        return counts

    def fault_counts(self) -> dict[str, int]:
        """Injected faults by kind, over the whole run."""
        return self._summary_counts(
            self.saved_fault_counts,
            lambda rnd: (event.kind for event in rnd.fault_events))

    def backend_counts(self) -> dict[str, int]:
        """Rounds by reported plan backend ('' = backend not reported)."""
        return self._summary_counts(self.saved_backend_counts,
                                    lambda rnd: (rnd.backend,))

    def fault_timeline(self) -> list[FaultEvent]:
        """Every injected fault in simulation-time order."""
        return [event for rnd in self.rounds for event in rnd.fault_events]

    def health_timeline(self) -> list:
        """Every node-health transition in simulation-time order, as
        ``(round_index, HealthEvent)`` pairs — what
        :class:`~repro.obs.stream.HealthEventStreamObserver` writes and
        :func:`repro.io.load_health_events` reads back."""
        return [(index, event) for index, rnd in enumerate(self.rounds)
                for event in rnd.health_events]

    # -- SLO alerts ------------------------------------------------------------

    def alerts_timeline(self) -> list:
        """Every SLO alert in simulation-time order, as
        ``(round_index, Alert)`` pairs (empty for unobserved runs)."""
        return [(index, alert) for index, rnd in enumerate(self.rounds)
                for alert in rnd.alerts]

    def alert_counts(self) -> dict[str, int]:
        """Fired SLO alerts by rule name, over the whole run."""
        return self._summary_counts(
            self.saved_alert_counts,
            lambda rnd: (alert.rule for alert in rnd.alerts))

    def health_counts(self) -> dict[str, int]:
        """Gray-failure defense counters — health transitions by kind,
        placement retries, telemetry rejections — from the final metrics
        snapshot (``health.*``, ``placement.*``, ``telemetry.*``).
        Populated on live results and io-loaded ones alike."""
        out: dict[str, int] = {}
        for key, value in self.final_metrics.items():
            if key.startswith(("health.", "placement.", "telemetry.")):
                out[key] = int(value)
        return out
