"""Gavel baseline: heterogeneity-aware scheduling of *rigid* jobs via a
linear program plus round-based space-time sharing (Section 2.1, [40]).

Gavel's max-sum-throughput policy solves, each round, the LP::

    max  sum_{j,t} xput[j,t] * X[j,t]
    s.t. sum_t X[j,t] <= 1                    (per job: total time fraction)
         sum_j g_j * X[j,t] <= C_t            (per type: GPU capacity)
         0 <= X[j,t] <= 1

where ``g_j`` is the job's submitter-fixed GPU count and ``xput[j,t]`` its
throughput with ``g_j`` GPUs of type ``t`` at its fixed batch size (Gavel
assumes the throughput matrix is known; we query an oracle-mode estimator).

The fractional solution is realized with Gavel's round-based mechanism:
each (job, type) pair accumulates a deficit ``X[j,t] * rounds_elapsed -
rounds_received[j,t]`` and the highest-deficit pairs run this round.  The
resulting job rotation across GPU types is exactly the time-sharing
behaviour whose checkpoint-restore overheads the paper highlights
(Table 3's congestion feedback loop, Figure 6's BERT rotation).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.types import Allocation
from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   pack_gpus_on_type)
from repro.schedulers.rigid import (RIGID_ROUND_S, fixed_count,
                                    fixed_count_rates)


class GavelScheduler(Scheduler):
    """Gavel with TunedJobs inputs and a selectable policy.

    ``policy='max_sum_throughput'`` (the paper's choice — lowest average JCT
    on Philly among Gavel's policies) maximizes aggregate normalized
    throughput; ``policy='max_min_fairness'`` maximizes the worst job's
    normalized throughput share (Gavel's LAS-style fairness objective),
    trading average JCT for tail behaviour.
    """

    name = "gavel"
    oracle_estimators = True
    round_duration = RIGID_ROUND_S
    POLICIES = ("max_sum_throughput", "max_min_fairness")

    def __init__(self, policy: str = "max_sum_throughput"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown Gavel policy {policy!r}; "
                             f"choose from {self.POLICIES}")
        self.policy = policy
        #: (job_id, gpu_type) -> rounds of service received.
        self._received: dict[tuple[str, str], float] = {}
        self._rounds_elapsed: dict[str, float] = {}
        self.load_solvers()

    def load_solvers(self) -> None:
        """scipy's ``linprog``, which every round with jobs calls."""
        import scipy.optimize  # noqa: F401

    # -- LP -----------------------------------------------------------------

    def _throughput_matrix(self, views: list[JobView], cluster: Cluster,
                           counts: list[int]) -> np.ndarray:
        """xput[j, t]: job j's rate on type t at its fixed GPU count
        ``counts[j]`` (:func:`fixed_count_rates`), 0 where t has fewer
        GPUs than the count."""
        types = cluster.gpu_types
        capacities = cluster.capacities()
        matrix = np.zeros((len(views), len(types)))
        for i, rates in enumerate(fixed_count_rates(views, cluster,
                                                    self.plan_memo)):
            for k, gpu_type in enumerate(types):
                if counts[i] <= capacities[gpu_type]:
                    matrix[i, k] = rates[gpu_type]
        return matrix

    def _solve_lp(self, xput: np.ndarray, counts: list[int],
                  capacities: list[int]) -> np.ndarray:
        from scipy.optimize import linprog

        n_jobs, n_types = xput.shape
        n_vars = n_jobs * n_types
        c = -xput.reshape(-1)
        rows = []
        ub = []
        for i in range(n_jobs):
            row = np.zeros(n_vars)
            row[i * n_types:(i + 1) * n_types] = 1.0
            rows.append(row)
            ub.append(1.0)
        for k in range(n_types):
            row = np.zeros(n_vars)
            for i in range(n_jobs):
                row[i * n_types + k] = counts[i]
            rows.append(row)
            ub.append(capacities[k])
        result = linprog(c, A_ub=np.vstack(rows), b_ub=np.array(ub),
                         bounds=(0.0, 1.0), method="highs")
        if not result.success:
            raise RuntimeError(f"Gavel LP failed: {result.message}")
        solution = result.x.reshape(n_jobs, n_types)
        # Zero out infeasible pairs the LP kept at numerical noise.
        solution[xput <= 0] = 0.0
        return solution

    def _solve_lp_max_min(self, xput: np.ndarray, counts: list[int],
                          capacities: list[int]) -> np.ndarray:
        """max-min fairness LP: maximize z subject to each job's normalized
        effective throughput being at least z."""
        from scipy.optimize import linprog

        n_jobs, n_types = xput.shape
        norms = xput.max(axis=1)
        feasible = norms > 0
        if not feasible.any():
            return np.zeros_like(xput)
        n_vars = n_jobs * n_types + 1  # X entries + z
        c = np.zeros(n_vars)
        c[-1] = -1.0  # maximize z
        rows = []
        ub = []
        for i in range(n_jobs):
            row = np.zeros(n_vars)
            row[i * n_types:(i + 1) * n_types] = 1.0
            rows.append(row)
            ub.append(1.0)
            if feasible[i]:
                # z - sum_t X[i,t] * xput[i,t]/norm_i <= 0
                row = np.zeros(n_vars)
                row[i * n_types:(i + 1) * n_types] = -xput[i] / norms[i]
                row[-1] = 1.0
                rows.append(row)
                ub.append(0.0)
        for k in range(n_types):
            row = np.zeros(n_vars)
            for i in range(n_jobs):
                row[i * n_types + k] = counts[i]
            rows.append(row)
            ub.append(capacities[k])
        bounds = [(0.0, 1.0)] * (n_jobs * n_types) + [(0.0, None)]
        result = linprog(c, A_ub=np.vstack(rows), b_ub=np.array(ub),
                         bounds=bounds, method="highs")
        if not result.success:
            raise RuntimeError(f"Gavel max-min LP failed: {result.message}")
        solution = result.x[:-1].reshape(n_jobs, n_types)
        solution[xput <= 0] = 0.0
        return solution

    # -- round mechanism ------------------------------------------------------

    def decide(self, views: list[JobView], cluster: Cluster,
               previous: dict[str, Allocation], now: float) -> RoundPlan:
        if not views:
            return RoundPlan()
        with self.tracer.span("bootstrap"):
            types = cluster.gpu_types
            counts = [fixed_count(v) for v in views]
            capacities = [cluster.capacity(t) for t in types]
        with self.goodput_eval():
            xput = self._throughput_matrix(views, cluster, counts)
        with self.tracer.span("solve", policy=self.policy):
            if self.policy == "max_min_fairness":
                allocation_fractions = self._solve_lp_max_min(
                    xput, counts, capacities)
            else:
                allocation_fractions = self._solve_lp(
                    xput, counts, capacities)

        with self.tracer.span("placement"):
            for view in views:
                self._rounds_elapsed[view.job_id] = \
                    self._rounds_elapsed.get(view.job_id, 0.0) + 1.0

            # Deficit-ordered selection.
            candidates: list[tuple[float, int, int]] = []
            for i, view in enumerate(views):
                elapsed = self._rounds_elapsed[view.job_id]
                for k, gpu_type in enumerate(types):
                    share = allocation_fractions[i, k]
                    if share <= 1e-6:
                        continue
                    received = self._received.get(
                        (view.job_id, gpu_type), 0.0)
                    deficit = share * elapsed - received
                    candidates.append((deficit, i, k))
            candidates.sort(reverse=True)

            plan = RoundPlan()
            occupancy: dict[int, int] = {}
            scheduled: set[int] = set()
            for deficit, i, k in candidates:
                if i in scheduled or deficit <= 0:
                    continue
                view = views[i]
                gpu_type = types[k]
                prev = previous.get(view.job_id)
                preferred = prev.node_ids if prev is not None \
                    and prev.gpu_type == gpu_type else ()
                allocation = pack_gpus_on_type(cluster, gpu_type,
                                               counts[i], occupancy,
                                               preferred)
                if allocation is None:
                    continue
                plan.allocations[view.job_id] = allocation
                scheduled.add(i)
                plan.estimates[view.job_id] = float(xput[i, k])
                self._received[(view.job_id, gpu_type)] = \
                    self._received.get((view.job_id, gpu_type), 0.0) + 1.0
        self.record_estimates(views, plan)
        return plan
