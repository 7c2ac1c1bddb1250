"""The pieces a run spec is built from, for runs and replay forks alike.

The replay engine (:mod:`repro.analysis.replay`) restores a recorded run's
state at a chosen round and plays out an alternate future under another
policy.  The factories both futures are built with live here,
argparse-free so the CLI and the programmatic API share one code path:

* :func:`make_scheduler` / :func:`make_fault_models` — the scheduler and
  fault-injector factories behind
  :func:`repro.analysis.replay.simulator_from_spec`, keyed by the same knob
  names the CLI exposes, with the defaults every recipe shares
  (:data:`SCHEDULER_OPTION_DEFAULTS`, :data:`FAULT_OPTION_DEFAULTS`);
* :func:`scheduler_jobs` — the TunedJobs rule: which job list a scheduler
  runs.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.core.policy import SiaPolicyParams
from repro.jobs.job import Job
from repro.schedulers.base import Scheduler
from repro.sim.faults import (CheckpointRestoreFaultModel, FaultModel,
                              GrayFailureModel, JobCrashModel,
                              PlacementFailureModel, StragglerModel,
                              TelemetryCorruptionModel)
from repro.workloads.tuning import tuned_jobs

#: schedulers that auto-tune jobs (run the raw adaptive trace).
ADAPTIVE_SCHEDULERS = ("sia", "pollux")
#: schedulers that need TunedJobs (fixed batch size and GPU count).
RIGID_SCHEDULERS = ("gavel", "shockwave", "themis", "fifo", "srtf")

#: scheduler knobs with the CLI's defaults (the ``scheduler_options`` of a
#: run spec); :func:`make_scheduler` takes any subset of these keys.
SCHEDULER_OPTION_DEFAULTS = {
    "round_duration": Scheduler.round_duration,
    "p": SiaPolicyParams.p,
    "lam": SiaPolicyParams.allocation_incentive,
    "solver": SiaPolicyParams.solver,
    "gavel_policy": "max_sum_throughput",
}
_SCHED = SCHEDULER_OPTION_DEFAULTS


def scheduler_jobs(name: str, jobs: list[Job], cluster: Cluster,
                   seed: int) -> list[Job]:
    """The job list scheduler ``name`` runs (Section 4.3): the rigid
    baselines get TunedJobs (a fixed batch size and GPU count per job),
    the adaptive schedulers the trace as is."""
    if name in RIGID_SCHEDULERS:
        return tuned_jobs(jobs, cluster, seed=seed)
    return jobs


def make_scheduler(name: str, *,
                   round_duration: float = _SCHED["round_duration"],
                   p: float = _SCHED["p"], lam: float = _SCHED["lam"],
                   solver: str = _SCHED["solver"],
                   gavel_policy: str = _SCHED["gavel_policy"],
                   resilient: bool = False) -> Scheduler:
    """Build a scheduler by name with the CLI's knobs and defaults.

    ``round_duration`` applies to the round-cadence-configurable schedulers
    (sia, pollux); the rigid baselines keep their own defaults, exactly as
    the CLI has always built them.  ``resilient`` changes nothing: the
    carry-forward guard for every scheduler is the simulator's
    (``SimulatorConfig.resilient``), and the argument stays only for
    callers that pass it.  Raises
    ``ValueError`` for an unknown name (the CLI turns that into a clean
    exit).
    """
    from repro.schedulers import (FIFOScheduler, GavelScheduler,
                                  PolluxScheduler, ShockwaveScheduler,
                                  SiaScheduler, SRTFScheduler,
                                  ThemisScheduler)

    if name == "sia":
        params = SiaPolicyParams(p=p, allocation_incentive=lam,
                                 solver=solver)
        return SiaScheduler(params, round_duration=round_duration)
    builders = {
        "pollux": lambda: PolluxScheduler(round_duration=round_duration),
        "gavel": lambda: GavelScheduler(policy=gavel_policy),
        "shockwave": ShockwaveScheduler,
        "themis": ThemisScheduler,
        "fifo": FIFOScheduler,
        "srtf": SRTFScheduler,
    }
    if name not in builders:
        known = ", ".join(ADAPTIVE_SCHEDULERS + RIGID_SCHEDULERS)
        raise ValueError(f"unknown scheduler {name!r}; choose from: {known}")
    return builders[name]()


#: fault-model knobs with the CLI's defaults; :func:`make_fault_models`
#: accepts any subset of these keys.
FAULT_OPTION_DEFAULTS = {
    "straggler_rate": 0.0, "straggler_slowdown": 0.5,
    "straggler_duration": 1800.0,
    "job_crash_rate": 0.0,
    "restore_failure_prob": 0.0,
    "gray_rate": 0.0, "gray_slowdown": 0.35, "gray_duration": 7200.0,
    "placement_fail_prob": 0.0,
    "telemetry_corrupt_rate": 0.0,
}


def make_fault_models(options: dict | None = None) -> list[FaultModel]:
    """Fault injectors from a knob dict (the CLI's flag names; node crashes
    keep riding the legacy ``node_failure_rate`` path inside the simulator).
    Unknown keys raise so a typo in a saved run spec cannot silently drop a
    fault model."""
    opts = dict(FAULT_OPTION_DEFAULTS)
    if options:
        unknown = set(options) - set(opts)
        if unknown:
            raise ValueError(f"unknown fault options: {sorted(unknown)}")
        opts.update(options)
    models: list[FaultModel] = []
    if opts["straggler_rate"] > 0:
        models.append(StragglerModel(rate=opts["straggler_rate"],
                                     slowdown=opts["straggler_slowdown"],
                                     duration=opts["straggler_duration"]))
    if opts["job_crash_rate"] > 0:
        models.append(JobCrashModel(rate=opts["job_crash_rate"]))
    if opts["restore_failure_prob"] > 0:
        models.append(CheckpointRestoreFaultModel(
            failure_prob=opts["restore_failure_prob"]))
    if opts["gray_rate"] > 0:
        models.append(GrayFailureModel(rate=opts["gray_rate"],
                                       slowdown=opts["gray_slowdown"],
                                       duration=opts["gray_duration"]))
    if opts["placement_fail_prob"] > 0:
        models.append(PlacementFailureModel(
            failure_prob=opts["placement_fail_prob"]))
    if opts["telemetry_corrupt_rate"] > 0:
        models.append(TelemetryCorruptionModel(
            rate=opts["telemetry_corrupt_rate"]))
    return models
