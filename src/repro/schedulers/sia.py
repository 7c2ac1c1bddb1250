"""Sia scheduler: one round is the goodput ILP (Section 3.4) followed by
placement (Sections 3.1 and 3.3).

Each round:

1. build the valid configuration set ``C`` for the cluster (Section 3.3);
2. per job, filter ``C`` to what the job may use this round — submitter GPU
   limits, the <= 2x scale-up rule, allowed GPU types, hybrid replica
   multiples;
3. query each job's Goodput Estimator for every feasible configuration;
   the cache misses of all jobs share one goodput pass
   (:func:`repro.perf.estimator.goodput_rows`);
4. row-normalize the feasible goodputs, discount restarts (Equation 3),
   shape with the fairness power ``p`` and allocation incentive
   ``lambda``, all on one flat vector scattered once into the dense
   utility matrix (:mod:`repro.core.matrix`);
5. solve the 0/1 ILP with per-GPU-type capacity constraints;
6. bind the chosen configurations to nodes
   (:func:`repro.core.placement.place`).

Non-preemptible running jobs are pinned to their current configuration via
forced ILP assignments (Section 3.4, "Preemption and reservation").
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core import matrix as gm
from repro.core.configs import build_config_set
from repro.core.ilp import AssignmentProblem, solve_assignment
from repro.core.placement import place
from repro.core.policy import SiaPolicyParams
from repro.core.types import Allocation, Configuration
from repro.perf.estimator import goodput_rows
from repro.schedulers.base import JobView, RoundPlan, Scheduler

#: per-round scale-up cap (Section 3.1; "at most 2x per round").
SCALE_UP_FACTOR = 2


class _ConfigSet:
    """A configuration set with each configuration's column, GPU count and
    type, and the feasible columns found so far; only ``configs`` pickles."""

    def __init__(self, configs: list[Configuration]):
        self.configs = configs
        self.pos = {config: j for j, config in enumerate(configs)}
        self.gpus = np.array([c.num_gpus for c in configs])
        self.types = [c.gpu_type for c in configs]
        self.feasible: dict[tuple, tuple] = {}


class SiaScheduler(Scheduler):
    """Heterogeneity-aware, goodput-optimized scheduler (the paper's system).

    Defaults follow Section 4.3: 60 s rounds, p = -0.5, lambda = 1.1.
    """

    name = "sia"

    def __init__(self, params: SiaPolicyParams | None = None,
                 round_duration: float = 60.0):
        self.params = params or SiaPolicyParams()
        self.round_duration = round_duration
        self._config_cache: dict[tuple, _ConfigSet] = {}
        self.load_solvers()

    def __getstate__(self) -> dict:
        """Each cached set as its configuration list; nothing derived."""
        state = super().__getstate__()
        state.pop("_last_set", None)
        state["_config_cache"] = {key: entry.configs for key, entry
                                  in self._config_cache.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._config_cache = {key: _ConfigSet(configs) for key, configs
                              in self._config_cache.items()}

    def load_solvers(self) -> None:
        """Check that scipy, which holds HiGHS, is installed, unless the
        solver is ``greedy``, which never reaches it.  Only a lattice too
        large for the DP (:data:`repro.core.ilp._DP_MAX_WORK`) calls
        HiGHS, so the import waits for that call; a missing scipy still
        fails here, not as a failed solve in every such round."""
        if (self.params.solver != "greedy"
                and importlib.util.find_spec("scipy") is None):
            raise ImportError("the milp solver needs scipy for HiGHS")

    def configurations(self, cluster: Cluster,
                       max_gpus: int | None = None) -> list[Configuration]:
        """The valid configuration set, cached per cluster structure: the
        key, :attr:`Cluster.signature`, covers everything
        :func:`build_config_set` reads, so equal clusters share a set and a
        changed one never reuses a stale set.  The last ``Cluster`` object
        asked about hits before its signature is built."""
        return self._config_set(cluster, max_gpus).configs

    def _config_set(self, cluster: Cluster, max_gpus: int | None):
        last = self.__dict__.get("_last_set")
        if last is not None and last[0] is cluster and last[1] == max_gpus:
            return last[2]
        key = (cluster.signature, max_gpus)
        entry = self._config_cache.get(key)
        if entry is None:
            if len(self._config_cache) >= 32:  # bound elastic clusters
                self._config_cache.clear()
            entry = self._config_cache[key] = _ConfigSet(
                build_config_set(cluster, max_gpus=max_gpus))
        self._last_set = (cluster, max_gpus, entry)
        return entry

    def feasible_configs(self, view: JobView, configs: list[Configuration],
                         config_pos: dict[Configuration, int]) -> list[int]:
        """Indices of configurations the job may use this round;
        ``config_pos`` maps each of ``configs`` to its index."""
        job = view.job
        allowed_types = job.allowed_gpu_types
        current = view.current_config
        if current is not None:
            growth_cap = current.num_gpus * SCALE_UP_FACTOR
        elif job.hybrid is not None:
            # A queued job starts at exactly its minimum size (Section
            # 3.1); for hybrid jobs that is the largest per-type replica
            # size, so every profiled type is reachable.
            growth_cap = max(job.hybrid.stages_per_type.values())
        else:
            growth_cap = max(1, job.effective_min_gpus)
        out: list[int] = []
        for j, config in enumerate(configs):
            if allowed_types is not None and config.gpu_type not in allowed_types:
                continue
            if config.num_gpus > job.effective_max_gpus:
                continue
            if config.num_gpus < job.effective_min_gpus:
                continue
            if job.fixed_num_gpus is not None \
                    and config.num_gpus != job.fixed_num_gpus:
                continue
            if job.hybrid is not None \
                    and job.hybrid.num_replicas(config) is None:
                continue
            if config.num_gpus > growth_cap and config != current:
                continue
            out.append(j)
        # A running job may always keep its configuration.
        idx = config_pos.get(current)
        if idx is not None and idx not in out:
            out.append(idx)
        return out

    def _feasible(self, entry: _ConfigSet, view: JobView) -> tuple:
        """``(columns, configurations)`` of :meth:`feasible_configs`, memoized
        by all it reads: jobs with equal limits share one list."""
        job, hybrid = view.job, view.job.hybrid
        key = (job.allowed_gpu_types, job.effective_min_gpus,
               job.effective_max_gpus, job.fixed_num_gpus,
               hybrid and tuple(hybrid.stages_per_type.items()),
               view.current_config)
        found = entry.feasible.get(key)
        if found is None:
            cols = self.feasible_configs(view, entry.configs, entry.pos)
            found = entry.feasible[key] = (
                cols, [entry.configs[j] for j in cols])
        return found

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        tracer = self.tracer
        params = self.params
        with tracer.span("bootstrap", jobs=len(views)):
            max_gpus = max(v.job.effective_max_gpus for v in views)
            entry = self._config_set(cluster, max_gpus)
            configs = entry.configs

        with self.goodput_eval(jobs=len(views), configs=len(configs)) as span:
            # Every job rates only its feasible columns, all in one goodput
            # pass, shaped as one flat vector (repro.core.matrix).
            feasible = [self._feasible(entry, view) for view in views]
            goodputs, row_plans = goodput_rows(
                [(view.estimator, found[1])
                 for view, found in zip(views, feasible)],
                span, self.plan_memo)
            rows = np.repeat(np.arange(len(views)),
                             [len(found[0]) for found in feasible])
            cols = np.array([j for found in feasible for j in found[0]],
                            dtype=np.intp)
            normalized = gm.normalize_rows(
                np.concatenate(goodputs), rows,
                [v.job.effective_min_gpus for v in views])

            current_idx = [entry.pos.get(v.current_config) for v in views]
            if params.use_restart_factor:
                factors = [gm.restart_factor(v.age, v.num_restarts,
                                             v.job.restart_delay)
                           for v in views]
            else:
                factors = [1.0] * len(views)
            discounted = gm.apply_restart_discount(normalized, rows, cols,
                                                   current_idx, factors)
            if self.health_discounts:
                # Probation nodes (health layer): shave the goodput domain
                # before fairness shaping so the discount is direction-
                # correct under both signs of p.
                discounted = gm.apply_health_discount(
                    discounted, cols, entry.types, self.health_discounts)
            utilities = np.full((len(views), len(configs)), np.nan)
            utilities[rows, cols] = gm.shape_utilities(
                discounted, p=params.p,
                allocation_incentive=params.allocation_incentive)

            forced: dict[int, int] = {}
            for i, view in enumerate(views):
                if view.is_running and not view.job.preemptible \
                        and current_idx[i] is not None:
                    forced[i] = current_idx[i]

        with tracer.span("solve", backend=params.solver):
            problem = AssignmentProblem(
                utilities=utilities,
                config_gpus=entry.gpus,
                config_types=entry.types,
                capacities=cluster.capacities(),
                forced=forced,
            )
            solution = solve_assignment(problem, params.solver, tracer)

        assignments = {views[i].job_id: configs[j]
                       for i, j in solution.assignment.items()}
        pinned = {v.job_id for v in views
                  if not v.job.preemptible and v.is_running}
        with tracer.span("placement"):
            allocations = place(cluster, assignments, previous, pinned)
        # Surface the raw (undiscounted, unshaped) goodput the ILP's utility
        # entry was built from — the estimate side of the goodput ledger —
        # and the plan it was rated from, where placement kept the ILP's
        # configuration.
        estimates, plans = {}, {}
        for i, j in solution.assignment.items():
            job_id = views[i].job_id
            allocation = allocations.get(job_id)
            if allocation is None:
                continue
            k = feasible[i][0].index(j)
            value = float(goodputs[i][k])
            if value > 0:
                estimates[job_id] = value
            if allocation.configuration() == configs[j]:
                plans[job_id] = row_plans[i][k]
        plan = RoundPlan(allocations=allocations,
                         objective=solution.objective,
                         backend=solution.backend,
                         estimates=estimates, plans=plans)
        # The ILP's own numbers win; the base hook fills any job placed
        # without an ILP estimate or plan.
        self.record_estimates(views, plan)
        return plan
