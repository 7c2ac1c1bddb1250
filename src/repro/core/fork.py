"""Fork-time construction and re-binding for counterfactual replay.

The replay engine (:mod:`repro.analysis.replay`) restores a recorded run's
state at a chosen round and plays out an alternate future under overridden
conditions.  Everything that builds or rewires the pieces of that alternate
future lives here, argparse-free so the CLI and the programmatic API share
one code path:

* :func:`make_scheduler` / :func:`make_fault_models` — the scheduler and
  fault-injector factories behind
  :func:`repro.analysis.replay.simulator_from_spec`, keyed by the same knob
  names the CLI exposes, with the defaults every recipe shares
  (:data:`SCHEDULER_OPTION_DEFAULTS`, :data:`FAULT_OPTION_DEFAULTS`);
* :func:`scheduler_jobs` — the TunedJobs rule: which job list a scheduler
  runs;
* :func:`parse_cluster_delta` / :func:`apply_cluster_delta` — structured
  capacity edits (``+64xa100``, ``-8xt4``) applied to a base cluster while
  preserving existing node ids, so restored allocations stay meaningful;
* :func:`rebind_solver` — swap a Sia scheduler's ILP backend in place,
  mid-run;
* :func:`reseed_fault_models` — deterministically re-bind every fault
  model's RNG, resetting outage/slowdown windows for a "different luck"
  fork.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, power_of_two_decomposition
from repro.core import ilp as ilp_backends
from repro.core.policy import SiaPolicyParams
from repro.jobs.job import Job
from repro.schedulers.base import Scheduler
from repro.sim.faults import (CheckpointRestoreFaultModel, FaultModel,
                              GrayFailureModel, JobCrashModel,
                              PlacementFailureModel, StragglerModel,
                              TelemetryCorruptionModel, fault_model_seed)
from repro.workloads.tuning import tuned_jobs

#: schedulers that auto-tune jobs (run the raw adaptive trace).
ADAPTIVE_SCHEDULERS = ("sia", "pollux")
#: schedulers that need TunedJobs (fixed batch size and GPU count).
RIGID_SCHEDULERS = ("gavel", "shockwave", "themis", "fifo", "srtf")

#: ILP backends :func:`rebind_solver` accepts (SiaPolicyParams.solver).
#: Aliases :data:`repro.core.ilp.BACKENDS` so the replay CLI's
#: ``--solver-backend`` choices can never drift from the solver registry.
SOLVER_BACKENDS = ilp_backends.BACKENDS

#: scheduler knobs with the CLI's defaults (the ``scheduler_options`` of a
#: run spec); :func:`make_scheduler` takes any subset of these keys.
SCHEDULER_OPTION_DEFAULTS = {
    "round_duration": Scheduler.round_duration,
    "p": SiaPolicyParams.p,
    "lam": SiaPolicyParams.allocation_incentive,
    "solver": SiaPolicyParams.solver,
    "gavel_policy": "max_sum_throughput",
    "solve_budget": 5.0,
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
                   resilient: bool = False,
                   solve_budget: float = _SCHED["solve_budget"]) -> Scheduler:
    """Build a scheduler by name with the CLI's knobs and defaults.

    ``round_duration`` applies to the round-cadence-configurable schedulers
    (sia, pollux); the rigid baselines keep their own defaults, exactly as
    the CLI has always built them.  ``resilient`` gives Sia's fallback
    ladder a ``solve_budget`` (seconds) per budgeted rung; otherwise HiGHS
    runs without a time limit.  The carry-forward guard for every
    scheduler is the simulator's (``SimulatorConfig.resilient``).  Raises
    ``ValueError`` for an unknown name (the CLI turns that into a clean
    exit).
    """
    from repro.schedulers import (FIFOScheduler, GavelScheduler,
                                  PolluxScheduler, ShockwaveScheduler,
                                  SiaScheduler, SRTFScheduler,
                                  ThemisScheduler)

    if name == "sia":
        params = SiaPolicyParams(
            p=p, allocation_incentive=lam, solver=solver,
            solve_budget_s=solve_budget if resilient else None)
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


# -- cluster deltas ------------------------------------------------------------

_DELTA_TERM = re.compile(r"^([+-])(\d+)x([a-zA-Z][\w-]*)(?::(\d+))?$")


@dataclass(frozen=True)
class ClusterDelta:
    """One capacity edit: add (+) or remove (-) ``gpus`` GPUs of a type.

    ``gpus_per_node`` shapes *added* nodes (default: the type's largest
    existing node); removals always drop whole nodes, newest ids first.
    """

    gpu_type: str
    gpus: int  # signed: positive adds capacity, negative removes it
    gpus_per_node: int | None = None

    def describe(self) -> str:
        sign = "+" if self.gpus >= 0 else "-"
        text = f"{sign}{abs(self.gpus)}x{self.gpu_type}"
        if self.gpus_per_node is not None:
            text += f":{self.gpus_per_node}"
        return text


def parse_cluster_delta(spec: str) -> list[ClusterDelta]:
    """Parse ``+64xa100``, ``-8xt4``, ``+16xa100:4`` (comma-separable).

    The count is in *GPUs*; an optional ``:N`` suffix sets the per-node
    size of added nodes.  Raises ``ValueError`` on malformed terms.
    """
    deltas: list[ClusterDelta] = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        match = _DELTA_TERM.match(term)
        if match is None:
            raise ValueError(
                f"malformed cluster delta {term!r}; expected "
                "'+<gpus>x<type>[:<gpus_per_node>]' or '-<gpus>x<type>', "
                "e.g. '+64xa100' or '-8xt4'")
        sign, count, gpu_type, per_node = match.groups()
        gpus = int(count)
        if gpus <= 0:
            raise ValueError(f"cluster delta {term!r} must move >= 1 GPU")
        if sign == "-" and per_node is not None:
            raise ValueError(f"cluster delta {term!r}: removals drop whole "
                             "existing nodes; ':<gpus_per_node>' only "
                             "applies to additions")
        deltas.append(ClusterDelta(
            gpu_type=gpu_type.lower(),
            gpus=gpus if sign == "+" else -gpus,
            gpus_per_node=int(per_node) if per_node else None))
    if not deltas:
        raise ValueError(f"empty cluster delta {spec!r}")
    return deltas


def apply_cluster_delta(cluster: Cluster, deltas: list[ClusterDelta],
                        ) -> tuple[Cluster, frozenset[int]]:
    """Apply capacity edits to ``cluster``; returns ``(new_cluster,
    removed_node_ids)``.

    Existing nodes keep their ids (restored allocations and fault windows
    reference them); additions append fresh ids.  Additions are restricted
    to GPU types already present — in-flight jobs' estimators were built
    against the base cluster's types, so a brand-new type would be
    invisible to every admitted job.  Removals drop whole nodes of the
    type, highest id first, and must hit the requested GPU count exactly.
    """
    nodes = list(cluster.nodes)
    removed: set[int] = set()
    known_types = set(cluster.gpu_types)
    next_id = max(n.node_id for n in nodes) + 1
    next_physical = max(n.physical_id for n in nodes) + 1
    for delta in deltas:
        if delta.gpu_type not in known_types:
            raise ValueError(
                f"cluster delta {delta.describe()!r}: GPU type "
                f"{delta.gpu_type!r} is not in the base cluster "
                f"({', '.join(sorted(known_types))}); forks can only "
                "resize existing types — admitted jobs' estimators know "
                "nothing about new ones")
        if delta.gpus > 0:
            per_node = delta.gpus_per_node \
                or cluster.max_node_size(delta.gpu_type)
            if per_node <= 0:
                raise ValueError("gpus_per_node must be >= 1")
            remaining = delta.gpus
            while remaining > 0:
                size = min(per_node, remaining)
                # Mirror Cluster.from_groups: non-power-of-two nodes are
                # decomposed into power-of-two virtual nodes sharing one
                # physical id.
                physical = next_physical
                next_physical += 1
                for part in power_of_two_decomposition(size):
                    nodes.append(Node(node_id=next_id,
                                      gpu_type=delta.gpu_type,
                                      num_gpus=part, physical_id=physical))
                    next_id += 1
                remaining -= size
        else:
            need = -delta.gpus
            victims = sorted(
                (n for n in nodes
                 if n.gpu_type == delta.gpu_type
                 and n.node_id not in removed),
                key=lambda n: -n.node_id)
            for node in victims:
                if need == 0:
                    break
                if node.num_gpus > need:
                    continue  # keep looking for smaller whole nodes
                removed.add(node.node_id)
                need -= node.num_gpus
            if need > 0:
                have = sum(n.num_gpus for n in nodes
                           if n.gpu_type == delta.gpu_type
                           and n.node_id not in removed)
                raise ValueError(
                    f"cluster delta {delta.describe()!r}: cannot remove "
                    f"{-delta.gpus} {delta.gpu_type} GPUs as whole nodes "
                    f"({have} GPUs remain in indivisible node sizes)")
    surviving = tuple(n for n in nodes if n.node_id not in removed)
    if not surviving:
        raise ValueError("cluster delta removed every node")
    return Cluster(nodes=surviving), frozenset(removed)


# -- mid-run re-binding --------------------------------------------------------

def rebind_solver(scheduler: Scheduler, backend: str) -> None:
    """Swap the ILP backend of a Sia scheduler in place.

    ``SiaScheduler.decide`` reads ``params.solver`` at every solve, so
    this takes effect from the next round; the new backend's solver
    library loads here, not in that round.  Raises ``ValueError`` for an
    unknown backend or a scheduler without a solver to rebind.
    """
    if backend not in SOLVER_BACKENDS:
        raise ValueError(f"unknown solver backend {backend!r}; choose from "
                         f"{SOLVER_BACKENDS}")
    params = getattr(scheduler, "params", None)
    if not isinstance(params, SiaPolicyParams):
        raise ValueError(
            f"scheduler {scheduler.name!r} has no ILP solver to rebind "
            "(solver_backend overrides only apply to sia)")
    params.solver = backend
    scheduler.load_solvers()


def reseed_fault_models(models: list[FaultModel], seed: int) -> None:
    """Deterministically re-bind every fault model to a fresh RNG stream.

    Binding also resets model state (outage and slowdown windows), so a
    reseeded fork draws an entirely different fault future from the fork
    round on — the "different luck" counterfactual.  Each model's seed is
    :func:`~repro.sim.faults.fault_model_seed` of its position.
    """
    for idx, model in enumerate(models):
        model.bind(fault_model_seed(seed, idx))
