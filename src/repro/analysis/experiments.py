"""Canonical experiment drivers shared by the benchmark harness.

Every table/figure bench reduces to: sample a trace, convert it per
scheduler (TunedJobs for rigid baselines), simulate, summarize.  These
drivers centralize that plumbing and the *scaled-down defaults* — the paper
runs 160-960-job traces for tens of simulated hours; the benches default to
a quarter-scale version (same contention profile: work and submission
window shrink together) so the whole harness completes in minutes.  Pass
``scale=FULL_SCALE`` to reproduce the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.core.types import ProfilingMode
from repro.jobs.job import Job
from repro.metrics.jct import SummaryMetrics, summarize
from repro.schedulers.base import Scheduler
from repro.schedulers.gavel import GavelScheduler
from repro.schedulers.pollux import PolluxScheduler
from repro.schedulers.rigid import ShockwaveScheduler, ThemisScheduler
from repro.schedulers.sia import SiaScheduler
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.telemetry import SimulationResult
from repro.workloads.generators import trace_by_name
from repro.workloads.trace import Trace
from repro.workloads.tuning import tuned_jobs


@dataclass(frozen=True)
class ExperimentScale:
    """How much to shrink the paper's workloads for one run."""

    #: multiplier on every job's work total.
    work: float = 0.25
    #: multiplier on the trace submission window.
    window: float = 0.25
    #: multiplier on the trace job count (1.0 keeps the paper's counts).
    jobs: float = 0.5
    #: simulation cap in hours.
    max_hours: float = 200.0


#: quarter-work, quarter-window, half-jobs: minutes per simulation.
BENCH_SCALE = ExperimentScale()
#: the paper's sizes (slow: tens of minutes per scheduler per trace).
FULL_SCALE = ExperimentScale(work=1.0, window=1.0, jobs=1.0, max_hours=2000.0)


def sample_trace(name: str, seed: int,
                 scale: ExperimentScale = BENCH_SCALE) -> Trace:
    """Sample one scaled trace of a workload family."""
    from repro.workloads.generators import SPECS
    spec = SPECS[name]
    num_jobs = max(4, int(round(
        spec.arrival_rate_per_hour * spec.window_hours * scale.jobs)))
    return trace_by_name(
        name, seed=seed, num_jobs=num_jobs,
        work_scale_factor=scale.work,
        window_hours=spec.window_hours * scale.window)


def run_once(cluster: Cluster, scheduler: Scheduler, jobs: list[Job], *,
             seed: int = 0, scale: ExperimentScale = BENCH_SCALE,
             profiling_mode: ProfilingMode = ProfilingMode.BOOTSTRAP,
             obs_noise: float = 0.0,
             rate_noise: float = 0.0) -> SimulationResult:
    """Simulate one (scheduler, job list) pair."""
    config = SimulatorConfig(profiling_mode=profiling_mode, seed=seed,
                             obs_noise=obs_noise, rate_noise=rate_noise,
                             max_hours=scale.max_hours)
    return Simulator(cluster, scheduler, jobs, config).run()


@dataclass
class ComparisonResult:
    """Results of one multi-scheduler comparison on one trace."""

    trace_name: str
    results: dict[str, SimulationResult] = field(default_factory=dict)
    jobs_used: dict[str, list[Job]] = field(default_factory=dict)

    def summaries(self) -> dict[str, SummaryMetrics]:
        return {name: summarize(r) for name, r in self.results.items()}


def adaptive_scheduler_set() -> dict[str, Scheduler]:
    """Sia + Pollux (run on the adaptive trace)."""
    return {"sia": SiaScheduler(), "pollux": PolluxScheduler()}


def rigid_scheduler_set(*, include_fairness: bool = False) -> dict[str, Scheduler]:
    """Gavel (+ Shockwave/Themis) — run on TunedJobs."""
    schedulers: dict[str, Scheduler] = {"gavel": GavelScheduler()}
    if include_fairness:
        schedulers["shockwave"] = ShockwaveScheduler()
        schedulers["themis"] = ThemisScheduler()
    return schedulers


def compare_on_trace(cluster: Cluster, trace: Trace, *,
                     adaptive: dict[str, Scheduler] | None = None,
                     rigid: dict[str, Scheduler] | None = None,
                     scale: ExperimentScale = BENCH_SCALE,
                     profiling_mode: ProfilingMode = ProfilingMode.BOOTSTRAP,
                     seed: int = 0) -> ComparisonResult:
    """Run adaptive schedulers on the raw trace and rigid schedulers on its
    TunedJobs conversion — the paper's comparison protocol (Section 4.3)."""
    if adaptive is None:
        adaptive = adaptive_scheduler_set()
    if rigid is None:
        rigid = rigid_scheduler_set()
    outcome = ComparisonResult(trace_name=trace.name)
    for name, scheduler in adaptive.items():
        outcome.results[name] = run_once(
            cluster, scheduler, trace.jobs, seed=seed, scale=scale,
            profiling_mode=profiling_mode)
        outcome.jobs_used[name] = trace.jobs
    if rigid:
        rigid_jobs = tuned_jobs(trace.jobs, cluster, seed=trace.seed)
        for name, scheduler in rigid.items():
            outcome.results[name] = run_once(
                cluster, scheduler, rigid_jobs, seed=seed, scale=scale,
                profiling_mode=profiling_mode)
            outcome.jobs_used[name] = rigid_jobs
    return outcome
