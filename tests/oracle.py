"""Reference implementations the optimized paths are certified against.

* :func:`solve_exact` — a pure-Python depth-first branch-and-bound over the
  assignment ILP of ``repro.core.ilp``: exact but exponential in the job
  count, so only for the small instances tests build.  The HiGHS backends
  are compared against it.
* :func:`incumbent_rescan` — the lattice DP's incumbent with every
  over-capacity change found by rescanning every job on the type.  The
  lazy heap of ``ilp._incumbent`` is compared against it, pick for pick.
* :class:`ReferenceThroughput` and :func:`best_of_grid` — the estimator's
  Section 3.2 throughput routing re-derived on every scalar query, and the
  per-candidate batch-plan loop.  The grouped goodput pass is compared
  against them.
* :func:`reference_fit` — the throughput fit recomputed from the whole
  observation list, grouped by configuration.  The estimator's running fit state is compared
  against it.
* :func:`probe_afresh` — the estimator's probe with its key slots and
  saved row emptied first, so every probe builds each group's row key and
  looks up every plan.  Estimators that keep their keys and rows are
  compared against it, and against :func:`probe_without_row`, which keeps
  the keys but no row.
* :func:`execute_afresh` and :func:`observe_afresh` — the executor's
  ground-truth rates and reports computed from the catalog on every call,
  drawing from the executor's own generator in the same order.  The
  process-level memos of ``repro.sim.executor`` are compared against them.
* :func:`add_observation_afresh` — the estimator's report intake with
  every report judged by ``_observation_credible``.  The steady-window
  short cut of ``JobPerfEstimator.add_observation`` is compared against
  it.
* :func:`dense_normalize_rows`, :func:`dense_restart_discount`,
  :func:`dense_health_discount` and :func:`dense_shape_utilities` — the
  Section 3.4 shaping steps on the dense (jobs x configurations) goodput
  matrix, nan where infeasible.  The compact pipeline of
  ``repro.core.matrix``, which shapes only each job's feasible entries, is
  compared against them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ilp import AssignmentProblem, AssignmentSolution
from repro.core.types import ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel
from repro.perf.estimator import _PRIOR_PARAMS, JobPerfEstimator
from repro.perf.fitting import (FitResult, Observation, _nonneg_linear_fit,
                                fit_sync_params, invert_sync_time)
from repro.perf.goodput import BatchPlan, GoodputModel
from repro.perf.throughput import GAMMA, ThroughputModel, ThroughputParams
from repro.sim.executor import ExecutionModel, RoundExecution


def solve_exact(problem: AssignmentProblem) -> AssignmentSolution:
    """The optimal assignment of a small instance.

    Jobs are visited in order; the bound adds each remaining job's best
    feasible utility, ignoring capacity (admissible, hence never prunes
    the optimum).
    """
    n = problem.n_jobs
    options: list[list[tuple[float, int]]] = []
    for i in range(n):
        row = problem.utilities[i]
        feasible = [(float(row[j]), j) for j in range(problem.n_configs)
                    if not math.isnan(row[j])]
        feasible.sort(reverse=True)
        if i in problem.forced:
            feasible = [(u, j) for u, j in feasible if j == problem.forced[i]]
        options.append(feasible)
    best_tail = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = max((u for u, _ in options[i]), default=0.0)
        best_tail[i] = best_tail[i + 1] + max(0.0, top)

    best_obj = -math.inf
    best_assignment: dict[int, int] = {}

    def dfs(i: int, value: float, remaining: dict[str, int],
            chosen: dict[int, int]) -> None:
        nonlocal best_obj, best_assignment
        if value + best_tail[i] <= best_obj:
            return
        if i == n:
            if value > best_obj:
                best_obj = value
                best_assignment = dict(chosen)
            return
        # Option: skip this job (not allowed if forced).
        if i not in problem.forced:
            dfs(i + 1, value, remaining, chosen)
        for utility, j in options[i]:
            gpu_type = problem.config_types[j]
            need = int(problem.config_gpus[j])
            if remaining.get(gpu_type, 0) < need:
                continue
            remaining[gpu_type] -= need
            chosen[i] = j
            dfs(i + 1, value + utility, remaining, chosen)
            del chosen[i]
            remaining[gpu_type] += need

    dfs(0, 0.0, dict(problem.capacities), {})
    if not math.isfinite(best_obj):
        raise RuntimeError("exact solver found no feasible assignment")
    return AssignmentSolution(best_assignment, best_obj, 0.0, backend="exact")


def incumbent_rescan(moves: list[list[tuple[int, int, float]]],
                     room: list[int]) -> list[tuple[int, int, float]] | None:
    """``ilp._incumbent``'s picks, each over-capacity change chosen by a
    scan of every job on the first over-capacity dimension: the least
    loss per GPU freed, first job, then first-ranked shift on ties."""
    if not all(moves):
        return None
    ranked = [sorted(job, key=lambda m: m[2], reverse=True) for job in moves]
    pick = [job[0] for job in ranked]
    used = [0] * len(room)
    for d, g, _ in pick:
        if d >= 0:
            used[d] += g
    over = next((d for d, n in enumerate(used) if n > room[d]), None)
    while over is not None:
        least, change = math.inf, None
        for i, (d, g, value) in enumerate(pick):
            if d != over:
                continue
            for move in ranked[i]:
                d2, g2, value2 = move
                if d2 == d:
                    freed = g - g2
                    if freed <= 0:
                        continue
                elif d2 >= 0 and used[d2] + g2 > room[d2]:
                    continue
                else:
                    freed = g
                if (value - value2) / freed < least:
                    least, change = (value - value2) / freed, (i, move)
        if change is None:
            return None
        i, move = change
        used[over] -= pick[i][1]
        if move[0] >= 0:
            used[move[0]] += move[1]
        pick[i] = move
        over = next((d for d, n in enumerate(used) if n > room[d]), None)
    for i, job in enumerate(ranked):
        d, g, _ = pick[i]
        if d >= 0:
            used[d] -= g
        pick[i] = next(m for m in job
                       if m[0] < 0 or used[m[0]] + m[1] <= room[m[0]])
        if pick[i][0] >= 0:
            used[pick[i][0]] += pick[i][1]
    return pick


class ReferenceThroughput:
    """One GPU type's throughput through the estimator's Section 3.2
    routing, re-derived on every query from the estimator's mode, fits and
    ``_trusts_fit`` (so a subclass's override holds), independently of its
    dispatch code:

    1. Oracle mode, or a trusted fit -> that model.
    2. A multi-GPU query on a 1-GPU-only fit -> Equation (1) from the
       multi-GPU-experienced type with the largest positive 1-GPU
       throughput (first listed on ties), else perfect scaling.
    3. No data for the type -> the type-blind prior.
    """

    def __init__(self, est: JobPerfEstimator, gpu_type: str):
        self.est = est
        self.gpu_type = gpu_type

    def throughput(self, local_bsz: int, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        est = self.est
        if est.mode is ProfilingMode.ORACLE:
            params = profiles.true_throughput_params(est.model_name,
                                                     self.gpu_type)
            return ThroughputModel(params).throughput(
                local_bsz, num_gpus, num_nodes, accum_steps)
        fit = est._fit(self.gpu_type)
        if fit is not None and est._trusts_fit(fit, num_gpus):
            return ThroughputModel(fit.params).throughput(
                local_bsz, num_gpus, num_nodes, accum_steps)
        if fit is None or not fit.has_single_gpu:
            return ThroughputModel(_PRIOR_PARAMS).throughput(
                local_bsz, num_gpus, num_nodes, accum_steps)
        singles = {}
        experienced = []
        for t in est.gpu_types:
            other = est._fit(t)
            if other is not None and other.has_single_gpu:
                singles[t] = ThroughputModel(other.params).throughput(
                    local_bsz, 1, 1)
                if other.has_multi_gpu and singles[t] > 0:
                    experienced.append(t)
        own = singles[self.gpu_type]
        if not experienced:
            return own * num_gpus
        reference = max(experienced, key=singles.__getitem__)
        ref_multi = ThroughputModel(est._fit(reference).params).throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)
        return own / singles[reference] * ref_multi


def best_of_grid(model: GoodputModel, pairs: list[tuple[int, int]],
                 num_gpus: int, num_nodes: int) -> BatchPlan | None:
    """The per-candidate batch-plan loop: every ``(accum, local)`` pair
    through the scalar ``model.evaluate``, first strictly greater goodput
    kept."""
    best: BatchPlan | None = None
    for accum, local in pairs:
        plan = model.evaluate(local, num_gpus, num_nodes, accum)
        if best is None or plan.goodput > best.goodput:
            best = plan
    return best


def _means(pairs) -> dict:
    """The mean value per key, each taken in report order as
    ``m += (t - m) / n``; keys in first-report order."""
    means: dict = {}
    counts: dict = {}
    for key, value in pairs:
        counts[key] = counts.get(key, 0) + 1
        mean = means.get(key, 0.0)
        means[key] = mean + (value - mean) / counts[key]
    return means


def reference_compute_params(observations: list[Observation],
                             ) -> tuple[float, float]:
    """(alpha_c, beta_c) from the mean step time per local batch size at
    the smallest GPU count observed."""
    if not observations:
        raise ValueError("need at least one observation")
    smallest = min(obs.num_gpus for obs in observations)
    means = _means((obs.local_bsz, obs.iter_time / obs.accum_steps)
                   for obs in observations if obs.num_gpus == smallest)
    xs = sorted(means)
    return _nonneg_linear_fit(xs, [means[x] for x in xs])


def reference_fit(observations: list[Observation],
                  gamma: float = GAMMA) -> FitResult:
    """The full throughput fit, recomputed from every observation: one
    sync point per multi-GPU configuration, from its mean iteration
    time."""
    alpha_c, beta_c = reference_compute_params(observations)
    means = _means(((obs.num_gpus, obs.num_nodes, obs.local_bsz,
                     obs.accum_steps), obs.iter_time)
                   for obs in observations if obs.num_gpus > 1)
    intra_points: list[tuple[int, float]] = []
    inter_points: list[tuple[int, float]] = []
    for (k, n, m, s), iter_time in means.items():
        sync = invert_sync_time(iter_time, alpha_c + beta_c * m, s, gamma)
        (intra_points if n == 1 else inter_points).append((k, sync))

    alpha_r = beta_r = alpha_n = beta_n = 0.0
    if intra_points:
        alpha_r, beta_r = fit_sync_params(intra_points)
    if inter_points:
        alpha_n, beta_n = fit_sync_params(inter_points)
    if intra_points and not inter_points:
        alpha_n, beta_n = alpha_r * 3.0, beta_r * 3.0
    elif inter_points and not intra_points:
        alpha_r, beta_r = alpha_n / 3.0, beta_n / 3.0

    params = ThroughputParams(alpha_c=alpha_c, beta_c=beta_c,
                              alpha_r=alpha_r, beta_r=beta_r,
                              alpha_n=alpha_n, beta_n=beta_n, gamma=gamma)
    return FitResult(
        params=params,
        has_single_gpu=any(o.num_gpus == 1 for o in observations),
        has_intra_node=bool(intra_points),
        has_inter_node=bool(inter_points),
    )


#: The estimator's own probe, taken before any test patches it.
_PROBE = JobPerfEstimator._probe


def probe_afresh(estimator: JobPerfEstimator, configs, misses, memo):
    """:meth:`JobPerfEstimator._probe` after emptying ``estimator``'s key
    slots: one key per group per probe, as before estimators kept keys.
    Patch it onto the class (``monkeypatch.setattr(JobPerfEstimator,
    "_probe", probe_afresh)``) or bind it to one estimator."""
    estimator._slots.clear()
    estimator._row = None
    return _PROBE(estimator, configs, misses, memo)


def probe_without_row(estimator: JobPerfEstimator, configs, misses, memo):
    """:meth:`JobPerfEstimator._probe` after dropping ``estimator``'s
    saved row, its key slots kept: every probe looks up every plan."""
    estimator._row = None
    return _PROBE(estimator, configs, misses, memo)


def execute_afresh(model: ExecutionModel, job, allocation, plan,
                   speed: float = 1.0) -> RoundExecution | None:
    """:meth:`ExecutionModel.execute` with the true models built from the
    catalog on the call.  The hardware bias comes from ``model``'s own
    draws, so a twin executor with the same seed draws in the same
    order; hybrid jobs take the executor's hybrid path, which keeps no
    memo."""
    if not 0 < speed <= 1:
        raise ValueError("speed must be in (0, 1]")
    bias = model._hardware_bias(job.job_id, allocation.gpu_type) * speed
    if job.is_hybrid:
        return model._execute_hybrid(job, allocation, bias)
    if plan is None:
        return None
    gpu_type = allocation.gpu_type
    if plan.local_bsz > profiles.max_local_bsz(job.model_name, gpu_type):
        return None
    config = allocation.configuration()
    true_model = ThroughputModel(profiles.true_throughput_params(
        job.model_name, gpu_type))
    iter_time = true_model.iter_time(plan.local_bsz, config.num_gpus,
                                     config.num_nodes,
                                     plan.accum_steps) / bias
    total = config.num_gpus * plan.local_bsz * plan.accum_steps
    throughput = total / iter_time
    efficiency = EfficiencyModel(profiles.true_efficiency_params(
        job.model_name)).efficiency(total)
    return RoundExecution(goodput=throughput * efficiency,
                          throughput=throughput, iter_time=iter_time,
                          local_bsz=plan.local_bsz,
                          accum_steps=plan.accum_steps,
                          total_batch_size=total)


def observe_afresh(model: ExecutionModel, job, allocation,
                   execution: RoundExecution) -> Observation:
    """:meth:`ExecutionModel.observe` building a new report on every call,
    jittered by a draw from ``model``'s generator when it is noisy."""
    jitter = 1.0
    if model.obs_noise > 0.0:
        jitter = float(math.exp(model._rng.normal(0.0, model.obs_noise)))
    config = allocation.configuration()
    return Observation(gpu_type=allocation.gpu_type,
                       num_nodes=config.num_nodes,
                       num_gpus=config.num_gpus,
                       local_bsz=execution.local_bsz,
                       accum_steps=execution.accum_steps,
                       iter_time=execution.iter_time * jitter)


def add_observation_afresh(estimator: JobPerfEstimator,
                           obs: Observation) -> bool:
    """:meth:`JobPerfEstimator.add_observation` with every report judged
    by ``_observation_credible`` against its window."""
    if obs.gpu_type not in estimator._types:
        raise KeyError(f"estimator does not track GPU type {obs.gpu_type!r}")
    state = estimator._types[obs.gpu_type]
    key = (obs.gpu_type, obs.num_gpus, obs.num_nodes, obs.local_bsz,
           obs.accum_steps)
    if not estimator._observation_credible(state.recent.get(key),
                                           obs.iter_time):
        estimator.rejected_observations += 1
        return False
    window = state.recent.setdefault(key, [])
    window.append(obs.iter_time)
    if len(window) > estimator.OUTLIER_WINDOW:
        del window[0]
    if state.running.add(obs):
        state.dirty = True
        estimator._slots.clear()
        estimator._row = None
    return True


def dense_normalize_rows(matrix: np.ndarray,
                         min_gpus: list[int]) -> np.ndarray:
    """Row-min normalization ``G_ij <- N_i_min * G_ij / min_j G_ij`` of a
    dense matrix; nan, non-positive and non-finite entries come out nan."""
    if matrix.shape[0] != len(min_gpus):
        raise ValueError("min_gpus length must match the number of rows")
    matrix = np.where((matrix > 0) & np.isfinite(matrix), matrix, math.nan)
    if matrix.size == 0:
        return matrix
    lifted = np.where(np.isnan(matrix), np.inf, matrix)
    row_min = lifted.min(axis=1)
    has_feasible = np.isfinite(row_min)
    scale_num = np.asarray(min_gpus, dtype=float)[:, None]
    divisor = np.where(has_feasible, row_min, 1.0)[:, None]
    return np.where(has_feasible[:, None],
                    scale_num * matrix / divisor, matrix)


def dense_restart_discount(matrix: np.ndarray,
                           current_idx: list[int | None],
                           factors: list[float]) -> np.ndarray:
    """Equation (3)'s discount on every entry of a running job's row but
    its current column."""
    n_rows = matrix.shape[0]
    if len(current_idx) != n_rows or len(factors) != n_rows:
        raise ValueError("per-job inputs must match the number of rows")
    out = matrix.copy()
    if out.size == 0:
        return out
    running = np.fromiter((c is not None for c in current_idx),
                          dtype=bool, count=n_rows)
    current = np.fromiter((c if c is not None else -1
                           for c in current_idx),
                          dtype=np.int64, count=n_rows)
    cols = np.arange(out.shape[1])
    mask = running[:, None] & (cols[None, :] != current[:, None])
    factor_col = np.asarray(factors, dtype=float)[:, None]
    return np.where(mask, out * factor_col, out)


def dense_health_discount(matrix: np.ndarray, config_types: list[str],
                          discounts: dict[str, float]) -> np.ndarray:
    """Each column scaled by its GPU type's discount (absent types keep
    1.0); ``matrix`` itself when no discount applies."""
    if matrix.size and matrix.shape[1] != len(config_types):
        raise ValueError("config_types must match the number of columns")
    if not discounts:
        return matrix
    for gpu_type, factor in discounts.items():
        if not 0 < factor <= 1:
            raise ValueError(f"discount for {gpu_type!r} must be in (0, 1], "
                             f"got {factor}")
    column = np.array([discounts.get(t, 1.0) for t in config_types])
    if matrix.size == 0 or np.all(column == 1.0):
        return matrix
    return matrix * column[None, :]


def dense_shape_utilities(matrix: np.ndarray, *, p: float,
                          allocation_incentive: float) -> np.ndarray:
    """``lambda + G^p`` for ``p > 0``, ``lambda - G^p`` for ``p < 0`` and
    ``lambda + 1`` for ``p == 0`` on the feasible (non-nan) entries;
    non-positive and non-finite results are nan."""
    if allocation_incentive < 0:
        raise ValueError("allocation incentive must be non-negative")
    out = np.full_like(matrix, math.nan)
    feasible = ~np.isnan(matrix)
    values = matrix[feasible]
    values = np.where(values > 0, values, math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p > 0:
            shaped = allocation_incentive + np.power(values, p)
        elif p < 0:
            shaped = allocation_incentive - np.power(values, p)
        else:
            shaped = np.where(np.isnan(values), math.nan,
                              allocation_incentive + 1.0)
    shaped = np.where(np.isfinite(shaped), shaped, math.nan)
    out[feasible] = shaped
    return out
