"""The Sia scheduling policy (Section 3.4).

Each round:

1. build the valid configuration set ``C`` for the cluster (Section 3.3);
2. per job, filter ``C`` to what the job may use this round — submitter GPU
   limits, the <= 2x scale-up rule, allowed GPU types, hybrid replica
   multiples;
3. query each job's Goodput Estimator for every feasible configuration;
4. row-normalize the goodput matrix, discount restarts (Equation 3), shape
   with the fairness power ``p`` and allocation incentive ``lambda``;
5. solve the 0/1 ILP with per-GPU-type capacity constraints;
6. hand the chosen configurations to the Placer.

Non-preemptible running jobs are pinned to their current configuration via
forced ILP assignments (Section 3.4, "Preemption and reservation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core import matrix as gm
from repro.core.configs import build_config_set
from repro.core.ilp import AssignmentProblem, solve_with_fallback
from repro.core.types import Configuration, PolicyDecision
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # avoid a circular import; JobView is only a type hint
    from repro.schedulers.base import JobView


@dataclass
class SiaPolicyParams:
    """Tunables with the paper's defaults (Section 4.3)."""

    #: fairness power p (Section 5.7; default -0.5).
    p: float = -0.5
    #: allocation incentive lambda (Section 4.3; default 1.1).
    allocation_incentive: float = 1.1
    #: per-round scale-up cap (Section 3.1; "at most 2x per round").
    scale_up_factor: int = 2
    #: ILP backend — any of :data:`repro.core.ilp.BACKENDS` ('milp',
    #: 'lp_round', 'tiered', 'greedy'); the primary rung of the fallback
    #: ladder (:func:`repro.core.ilp.solve_with_fallback`).
    solver: str = "milp"
    #: wall-clock seconds each budgeted rung of the ladder may spend per
    #: round, passed to HiGHS as its time limit; None passes no limit.
    solve_budget_s: float | None = None
    #: disable the restart factor (ablation).
    use_restart_factor: bool = True

    def __post_init__(self) -> None:
        if self.solve_budget_s is not None and self.solve_budget_s <= 0:
            raise ValueError("solve_budget_s must be positive")


class SiaPolicy:
    """Computes one round's configuration assignments."""

    #: observability tracer (the SiaScheduler forwards the run's tracer so
    #: the policy's phase spans nest under the scheduler's plan span).
    tracer: Tracer = NULL_TRACER
    #: shared metrics registry (forwarded by the scheduler); counts
    #: ``solver.warm_start_hits`` into the run's round snapshots.
    metrics = None
    #: per-GPU-type goodput discounts for probation nodes, forwarded by the
    #: scheduler from the health layer each round; None/{} = no discount.
    health_discounts: dict[str, float] | None = None

    def __init__(self, params: SiaPolicyParams | None = None):
        self.params = params or SiaPolicyParams()
        self._config_cache: dict[tuple, list[Configuration]] = {}

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

    def feasible_configs(self, view: "JobView",
                         configs: list[Configuration],
                         index_map: dict[Configuration, int] | None = None,
                         ) -> list[int]:
        """Indices of configurations the job may use this round."""
        job = view.job
        allowed_types = job.allowed_gpu_types
        current = view.current_config
        if current is not None:
            growth_cap = current.num_gpus * self.params.scale_up_factor
        else:
            growth_cap = self._starting_cap(view, configs)
        out: list[int] = []
        for j, config in enumerate(configs):
            if allowed_types is not None and config.gpu_type not in allowed_types:
                continue
            if config.num_gpus > job.effective_max_gpus:
                continue
            if not self._meets_minimum(view, config):
                continue
            if config.num_gpus > growth_cap and config != current:
                continue
            out.append(j)
        # A running job may always keep its configuration.
        if current is not None:
            if index_map is not None:
                idx = index_map.get(current)
            else:
                idx = configs.index(current) if current in configs else None
            if idx is not None and idx not in out:
                out.append(idx)
        return out

    def _starting_cap(self, view: "JobView",
                      configs: list[Configuration]) -> int:
        """Initial allocation cap for a queued job: exactly the minimum size
        (Section 3.1's scale-up policy), which for hybrid jobs is the largest
        per-type replica size so every profiled type is reachable."""
        job = view.job
        if job.hybrid is not None:
            return max(job.hybrid.stages_per_type.values())
        return max(1, job.effective_min_gpus)

    def _meets_minimum(self, view: "JobView", config: Configuration) -> bool:
        job = view.job
        if config.num_gpus < job.effective_min_gpus:
            return False
        if job.fixed_num_gpus is not None \
                and config.num_gpus != job.fixed_num_gpus:
            return False
        if job.hybrid is not None:
            if job.hybrid.num_replicas(config) is None:
                return False
        return True

    # -- main entry point ------------------------------------------------------

    def decide(self, views: "list[JobView]", cluster: Cluster,
               now: float, previous: dict | None = None) -> PolicyDecision:
        """One round's decision.  ``previous`` (job_id ->
        :class:`~repro.core.types.Allocation`, as the engine hands the
        scheduler) seeds the solver warm start."""
        if not views:
            return PolicyDecision()
        tracer = self.tracer
        with tracer.span("bootstrap", jobs=len(views)):
            max_gpus = max(v.job.effective_max_gpus for v in views)
            configs = self.configurations(cluster, max_gpus=max_gpus)
            n_configs = len(configs)
            # One index map per round; every per-job lookup below is O(1).
            config_pos = gm.config_index_map(configs)

        with tracer.span("goodput_eval", jobs=len(views), configs=n_configs):
            # Each job's estimator fills its feasible columns of the dense
            # (jobs x configs) matrix in one call; the rest stay infeasible.
            raw = np.full((len(views), n_configs), math.nan)
            for i, view in enumerate(views):
                feasible = self.feasible_configs(view, configs, config_pos)
                raw[i, feasible] = view.estimator.goodput_batch(
                    [configs[j] for j in feasible])
            min_gpus = [v.job.effective_min_gpus for v in views]
            normalized = gm.normalize_rows(raw, min_gpus)

            current_idx = [gm.config_index(configs, v.current_config,
                                           config_pos)
                           for v in views]
            if self.params.use_restart_factor:
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
                discounted, p=self.params.p,
                allocation_incentive=self.params.allocation_incentive)

            forced: dict[int, int] = {}
            for i, view in enumerate(views):
                if view.is_running and not view.job.preemptible \
                        and current_idx[i] is not None:
                    forced[i] = current_idx[i]

        with tracer.span("solve", backend=self.params.solver):
            problem = AssignmentProblem(
                utilities=utilities,
                config_gpus=[c.num_gpus for c in configs],
                config_types=[c.gpu_type for c in configs],
                capacities=cluster.capacities(),
                forced=forced,
            )
            warm = None
            if previous:
                warm = gm.warm_start_pairs([v.job_id for v in views],
                                           previous, config_pos) or None
            solution, degraded = solve_with_fallback(
                problem, self.params.solver, self.params.solve_budget_s,
                tracer, warm_start=warm)
            if self.metrics is not None and solution.warm_started:
                self.metrics.counter("solver.warm_start_hits").inc()

        assignments = {
            views[i].job_id: configs[j]
            for i, j in solution.assignment.items()
        }
        # Surface the raw (undiscounted, unshaped) goodput the ILP's utility
        # row was built from — the estimate side of the goodput ledger.
        estimates = {}
        for i, j in solution.assignment.items():
            value = float(raw[i, j])
            if value > 0:
                estimates[views[i].job_id] = value
        return PolicyDecision(assignments=assignments,
                              objective=solution.objective,
                              backend=solution.backend, degraded=degraded,
                              estimates=estimates)
