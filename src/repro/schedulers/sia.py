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
4. row-normalize the goodput matrix, discount restarts (Equation 3), shape
   with the fairness power ``p`` and allocation incentive ``lambda``;
5. solve the 0/1 ILP with per-GPU-type capacity constraints;
6. bind the chosen configurations to nodes
   (:func:`repro.core.placement.place`).

Non-preemptible running jobs are pinned to their current configuration via
forced ILP assignments (Section 3.4, "Preemption and reservation").
"""

from __future__ import annotations

import importlib.util
import math

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


class SiaScheduler(Scheduler):
    """Heterogeneity-aware, goodput-optimized scheduler (the paper's system).

    Defaults follow Section 4.3: 60 s rounds, p = -0.5, lambda = 1.1.
    """

    name = "sia"

    def __init__(self, params: SiaPolicyParams | None = None,
                 round_duration: float = 60.0):
        self.params = params or SiaPolicyParams()
        self.round_duration = round_duration
        self._config_cache: dict[tuple, list[Configuration]] = {}
        self.load_solvers()

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
        """The valid configuration set, cached per cluster structure.

        The key, :attr:`Cluster.signature`, covers everything
        :func:`build_config_set` reads — GPU-type appearance order and each
        node's (type, size) — so two distinct ``Cluster`` objects with
        identical structure share cached configurations, and a rebuilt
        cluster never reuses a stale set (``id()`` keying guaranteed
        neither).
        """
        key = (cluster.signature, max_gpus)
        cached = self._config_cache.get(key)
        if cached is not None:
            return cached
        configs = build_config_set(cluster, max_gpus=max_gpus)
        if len(self._config_cache) >= 32:  # bound growth on elastic clusters
            self._config_cache.clear()
        self._config_cache[key] = configs
        return configs

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

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        tracer = self.tracer
        params = self.params
        with tracer.span("bootstrap", jobs=len(views)):
            max_gpus = max(v.job.effective_max_gpus for v in views)
            configs = self.configurations(cluster, max_gpus=max_gpus)
            n_configs = len(configs)
            # One index map per round; every per-job lookup below is O(1).
            config_pos = {config: j for j, config in enumerate(configs)}

        with self.goodput_eval(jobs=len(views), configs=n_configs) as span:
            # Every job fills its feasible columns of the dense (jobs x
            # configs) matrix, all from one goodput pass; the rest stay
            # infeasible.
            raw = np.full((len(views), n_configs), math.nan)
            feasible = [self.feasible_configs(view, configs, config_pos)
                        for view in views]
            rows, row_plans = goodput_rows(
                [(view.estimator, [configs[j] for j in cols])
                 for view, cols in zip(views, feasible)],
                span, self.plan_memo)
            for i, (cols, row) in enumerate(zip(feasible, rows)):
                raw[i, cols] = row
            min_gpus = [v.job.effective_min_gpus for v in views]
            normalized = gm.normalize_rows(raw, min_gpus)

            current_idx = [config_pos.get(v.current_config) for v in views]
            if params.use_restart_factor:
                factors = [gm.restart_factor(v.age, v.num_restarts,
                                             v.job.restart_delay)
                           for v in views]
            else:
                factors = [1.0] * len(views)
            discounted = gm.apply_restart_discount(normalized, current_idx,
                                                   factors)
            if self.health_discounts:
                # Probation nodes (health layer): shave the goodput domain
                # before fairness shaping so the discount is direction-
                # correct under both signs of p.
                discounted = gm.apply_health_discount(
                    discounted, [c.gpu_type for c in configs],
                    self.health_discounts)
            utilities = gm.shape_utilities(
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
                config_gpus=[c.num_gpus for c in configs],
                config_types=[c.gpu_type for c in configs],
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
        # row was built from — the estimate side of the goodput ledger —
        # and the plan it was rated from, where placement kept the ILP's
        # configuration.
        estimates, plans = {}, {}
        for i, j in solution.assignment.items():
            job_id = views[i].job_id
            allocation = allocations.get(job_id)
            if allocation is None:
                continue
            value = float(raw[i, j])
            if value > 0:
                estimates[job_id] = value
            if allocation.configuration() == configs[j]:
                plans[job_id] = row_plans[i][feasible[i].index(j)]
        plan = RoundPlan(allocations=allocations,
                         objective=solution.objective,
                         backend=solution.backend,
                         estimates=estimates, plans=plans)
        # The ILP's own numbers win; the base hook fills any job placed
        # without an ILP estimate or plan.
        self.record_estimates(views, plan)
        return plan
