"""0/1 ILP solver for the Sia assignment problem (Section 3.4).

The problem: choose at most one configuration per job, maximizing the sum of
(job, configuration) utilities plus an allocation incentive ``lambda`` per
allocated job, subject to per-GPU-type capacity.  Equation (2)'s penalty
``lambda * (1 - ||A_i||_1)`` is, up to a constant, an extra ``lambda`` of
utility on every feasible pair, which is how we encode it.

Interchangeable backends (:data:`BACKENDS`):

* ``milp``       — scipy's HiGHS mixed-integer solver (the default; stands
  in for the paper's CVXPY/GLPK_MI).
* ``lp_round``   — HiGHS LP relaxation + deterministic rounding (Gavel's
  trick: the relaxation is near-integral for this constraint shape, so
  rounding its support by goodput-per-GPU and repairing capacity greedily
  lands within a small optimality gap at a fraction of the MILP cost).
* ``tiered``     — pick by problem size (feasible-pair count): ``milp`` up
  to :data:`TIER_LP_VARS`, ``lp_round`` above it.
* ``greedy``     — utility-density greedy rounding (ablation baseline and
  last-resort fallback; fast but not optimal).

The fallback ladder: :func:`solve_with_fallback` is the one solve path
the Sia policy takes.  It tries the primary backend, then the remaining
rungs of ``lp_round -> greedy`` (:data:`FALLBACKS`), and raises
:class:`SolverExhaustedError` only when every rung fails; the simulator's
``resilient`` guard then carries the previous round forward.
:func:`solve_assignment` is the single-backend primitive underneath.

Warm starting: callers may pass last round's assignment (rows/cols already
mapped onto *this* problem's indices) as ``warm_start``.  scipy's ``milp``
exposes no incumbent API, so the MILP cannot consume it directly; instead
the warm start gives rounding stability in ``lp_round``, where warm pairs
win ties so allocations do not churn between equivalent optima.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from repro.obs.tracer import NULL_TRACER, Tracer

#: every backend :func:`solve_assignment` accepts, in quality order.
#: ``repro.core.fork`` re-exports this tuple so the replay CLI stays in
#: sync; add backends here, nowhere else.
BACKENDS = ("milp", "lp_round", "tiered", "greedy")

#: backends tried, in order, after the primary fails.  Entries equal to
#: the primary are skipped.  ``lp_round`` sits ahead of greedy because it
#: shares the MILP's constraint system at a fraction of the cost.
FALLBACKS = ("lp_round", "greedy")

#: ``tiered`` threshold, in feasible (job, config) pairs: up to
#: TIER_LP_VARS the exact MILP is affordable; past it the LP relaxation +
#: rounding takes over.
TIER_LP_VARS = 4096

#: LP-support epsilon: rounding considers pairs the relaxation weighted
#: above this before falling back to the full feasible set.
_LP_EPS = 1e-9


@dataclass
class AssignmentProblem:
    """One round's assignment instance.

    ``utilities[i][j]`` is the value of giving job ``i`` configuration ``j``
    (allocation incentive included); ``math.nan`` marks infeasible pairs.
    ``config_gpus[j]``/``config_types[j]`` give each configuration's GPU
    demand and type; ``capacities`` bounds total GPUs per type.  ``forced``
    pins jobs (non-preemptive jobs / reservations) to a configuration index.
    """

    utilities: np.ndarray
    config_gpus: np.ndarray
    config_types: list[str]
    capacities: dict[str, int]
    forced: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.utilities = np.asarray(self.utilities, dtype=float)
        self.config_gpus = np.asarray(self.config_gpus, dtype=int)
        n_jobs, n_configs = self.utilities.shape
        if len(self.config_gpus) != n_configs or len(self.config_types) != n_configs:
            raise ValueError("configuration arrays disagree on length")
        for row, col in self.forced.items():
            if not (0 <= row < n_jobs and 0 <= col < n_configs):
                raise ValueError(f"forced pair ({row}, {col}) out of range")
            if math.isnan(self.utilities[row, col]):
                raise ValueError(f"forced pair ({row}, {col}) is infeasible")

    @property
    def n_jobs(self) -> int:
        return self.utilities.shape[0]

    @property
    def n_configs(self) -> int:
        return self.utilities.shape[1]

    @property
    def n_feasible_pairs(self) -> int:
        """Variable count of the (MI)LP — the tier-selection size measure."""
        return int(np.count_nonzero(~np.isnan(self.utilities)))

    def feasible_pairs(self) -> list[tuple[int, int]]:
        rows, cols = np.where(~np.isnan(self.utilities))
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class AssignmentSolution:
    """Chosen configuration per job (jobs absent receive nothing)."""

    assignment: dict[int, int]
    objective: float
    solve_time: float
    #: concrete backend that produced the solution ('' for hand-built
    #: instances).
    backend: str = ""
    #: LP-relaxation optimum, when a relaxation was solved on the way
    #: (lp_round) — the certificate the optimality gap is measured against.
    lp_bound: float | None = None
    #: a warm start was threaded into the backend that produced this.
    warm_started: bool = False

    def gpus_used(self, problem: AssignmentProblem) -> dict[str, int]:
        used: dict[str, int] = {}
        for _, col in self.assignment.items():
            t = problem.config_types[col]
            used[t] = used.get(t, 0) + int(problem.config_gpus[col])
        return used


def select_backend(problem: AssignmentProblem) -> str:
    """Resolve the ``tiered`` backend for one instance by variable count."""
    return "lp_round" if problem.n_feasible_pairs > TIER_LP_VARS else "milp"


class SolverExhaustedError(RuntimeError):
    """Every rung of the fallback ladder failed for this round."""


def solve_with_fallback(problem: AssignmentProblem, primary: str = "milp",
                        budget: float | None = None,
                        tracer: Tracer | None = None,
                        warm_start: dict[int, int] | None = None,
                        ) -> tuple[AssignmentSolution, bool]:
    """Solve through the ladder ``primary -> lp_round -> greedy``.

    Every rung but the last runs under ``time_limit=budget``; the last
    runs unbudgeted, since it must produce *something*.  A rung that raises
    passes to the next, leaving a ``rung_failed`` instant event on
    ``tracer``.  Returns ``(solution, degraded)``: the first solution wins,
    and the round is degraded when a fallback rung served it or it overran
    ``budget``.  Raises :class:`SolverExhaustedError` when every rung fails.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if primary not in BACKENDS:
        raise ValueError(f"unknown backend {primary!r}; "
                         f"choose from {BACKENDS}")
    ladder = (primary, *[b for b in FALLBACKS if b != primary])
    for rung, backend in enumerate(ladder):
        limit = budget if rung < len(ladder) - 1 else None
        try:
            solution = solve_assignment(problem, backend=backend,
                                        time_limit=limit, tracer=tracer,
                                        warm_start=warm_start)
        except Exception as exc:
            tracer.instant("rung_failed", backend=backend,
                           error=type(exc).__name__)
            continue
        overran = budget is not None and solution.solve_time > budget
        return solution, rung > 0 or overran
    raise SolverExhaustedError(
        f"all solver backends failed (primary={primary!r}, "
        f"ladder={ladder!r}); caller should carry forward the previous "
        "round")


def solve_assignment(problem: AssignmentProblem, backend: str = "milp",
                     time_limit: float | None = None,
                     tracer: Tracer | None = None,
                     warm_start: dict[int, int] | None = None,
                     ) -> AssignmentSolution:
    """Solve one assignment instance with the chosen backend.

    ``time_limit`` (seconds) is forwarded to the HiGHS backends as a solver
    time budget; a timed-out solve returns the best incumbent found, or
    raises if none exists.  Other backends ignore it.  ``tracer`` records
    an ``ilp_solve`` span around the backend call (annotated with the
    resolved backend when ``backend='tiered'``).

    ``warm_start`` maps job row -> config column of a previous assignment
    already translated onto this problem's indices; infeasible entries are
    dropped silently (jobs finish, configs change).
    """
    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span("ilp_solve", backend=backend, jobs=problem.n_jobs,
                     configs=problem.n_configs) as span:
        start = time.perf_counter()
        resolved = backend
        if backend == "tiered":
            resolved = select_backend(problem)
            span.annotate(resolved=resolved)
        warm = _clean_warm_start(problem, warm_start)
        if resolved == "milp":
            solution = _solve_milp(problem, time_limit=time_limit)
        elif resolved == "lp_round":
            solution = _solve_lp_round(problem, time_limit=time_limit,
                                       warm_start=warm)
        elif resolved == "greedy":
            solution = _solve_greedy(problem)
        else:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        solution.backend = resolved
        solution.warm_started = warm is not None and resolved == "lp_round"
        solution.solve_time = time.perf_counter() - start
        _validate(problem, solution)
    return solution


def _validate(problem: AssignmentProblem, solution: AssignmentSolution) -> None:
    used = solution.gpus_used(problem)
    for gpu_type, count in used.items():
        cap = problem.capacities.get(gpu_type, 0)
        if count > cap:
            raise RuntimeError(
                f"solver over-allocated {gpu_type}: {count} > {cap}")
    for row, col in problem.forced.items():
        if solution.assignment.get(row) != col:
            raise RuntimeError(f"solver dropped forced assignment for job {row}")


# -- warm start ---------------------------------------------------------------

def _clean_warm_start(problem: AssignmentProblem,
                      warm_start: dict[int, int] | None,
                      ) -> dict[int, int] | None:
    """Restrict a warm start to pairs feasible in *this* problem.

    Out-of-range rows/cols and nan pairs are dropped (jobs finished, the
    config set changed); forced pairs always override the warm choice for
    their row.  Returns None when nothing survives.
    """
    if not warm_start:
        return None
    util = problem.utilities
    n_jobs, n_configs = util.shape
    warm: dict[int, int] = {}
    for row, col in warm_start.items():
        if not (0 <= row < n_jobs and 0 <= col < n_configs):
            continue
        if math.isnan(util[row, col]):
            continue
        warm[row] = col
    warm.update(problem.forced)
    return warm or None


# -- HiGHS backends (MILP and LP relaxation via scipy) ------------------------

@dataclass
class _PairSystem:
    """Sparse constraint system over the feasible (job, config) pairs."""

    pair_jobs: np.ndarray
    pair_cols: np.ndarray
    cost: np.ndarray
    constraints: LinearConstraint
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return int(self.pair_jobs.size)


def _assemble(problem: AssignmentProblem) -> _PairSystem | None:
    """Sparse constraint assembly: one variable per feasible (job, config)
    pair; each constraint row touches only its own pairs, so the matrix has
    exactly ``2 * n_vars`` potential nonzeros regardless of problem size
    (the old dense assembly allocated ``n_rows * n_vars`` zeros).  Returns
    None when no pair is feasible."""
    util = problem.utilities
    pair_jobs, pair_cols = np.nonzero(~np.isnan(util))  # row-major order
    n_vars = int(pair_jobs.size)
    if n_vars == 0:
        return None
    cost = -util[pair_jobs, pair_cols]

    # (a) each job picks at most one configuration.  ``np.unique`` returns
    # jobs ascending, which for row-major pairs matches first appearance.
    unique_jobs, job_row = np.unique(pair_jobs, return_inverse=True)
    n_job_rows = int(unique_jobs.size)

    # (b) per-GPU-type capacity, one row per type with >= 1 feasible pair,
    # in ``capacities`` iteration order.
    cap_types = list(problem.capacities)
    type_pos = {t: k for k, t in enumerate(cap_types)}
    config_type_pos = np.fromiter(
        (type_pos.get(t, -1) for t in problem.config_types),
        dtype=np.int64, count=len(problem.config_types))
    pair_type = config_type_pos[pair_cols]
    typed = np.flatnonzero(pair_type >= 0)
    hit_types = np.unique(pair_type[typed])  # sorted == capacities order
    type_row = np.full(len(cap_types), -1, dtype=np.int64)
    type_row[hit_types] = n_job_rows + np.arange(hit_types.size)

    entry_rows = np.concatenate([job_row, type_row[pair_type[typed]]])
    entry_cols = np.concatenate([np.arange(n_vars), typed])
    entry_vals = np.concatenate([
        np.ones(n_vars),
        problem.config_gpus[pair_cols[typed]].astype(float),
    ])
    n_rows = n_job_rows + int(hit_types.size)
    a_matrix = csr_array((entry_vals, (entry_rows, entry_cols)),
                         shape=(n_rows, n_vars))
    uppers = np.concatenate([
        np.ones(n_job_rows),
        np.array([float(problem.capacities[cap_types[k]])
                  for k in hit_types.tolist()]),
    ])

    lb = np.zeros(n_vars)
    ub = np.ones(n_vars)
    if problem.forced:
        pair_index = {(int(i), int(j)): idx for idx, (i, j)
                      in enumerate(zip(pair_jobs, pair_cols))}
        for row_job, col in problem.forced.items():
            lb[pair_index[(row_job, col)]] = 1.0

    return _PairSystem(pair_jobs=pair_jobs, pair_cols=pair_cols, cost=cost,
                       constraints=LinearConstraint(a_matrix, -np.inf, uppers),
                       lb=lb, ub=ub)


def _highs_solve(problem: AssignmentProblem, *, integral: bool,
                 time_limit: float | None,
                 ) -> tuple[np.ndarray, _PairSystem] | None:
    """One HiGHS solve (MILP when ``integral``, else the LP relaxation);
    returns ``(x, system)`` or None for an empty instance."""
    system = _assemble(problem)
    if system is None:
        return None
    integrality = np.ones(system.n_vars) if integral \
        else np.zeros(system.n_vars)
    options = {"time_limit": time_limit} if time_limit is not None else None
    result = milp(c=system.cost, constraints=system.constraints,
                  integrality=integrality,
                  bounds=Bounds(system.lb, system.ub), options=options)
    # status 0 = optimal; 1 = iteration/time limit reached, in which case
    # HiGHS may still hand back a feasible incumbent worth using.
    if result.status not in (0, 1) or result.x is None:
        raise RuntimeError(f"{'MILP' if integral else 'LP'} failed: "
                           f"{result.message}")
    return np.asarray(result.x, dtype=float), system


def _solve_milp(problem: AssignmentProblem,
                time_limit: float | None = None) -> AssignmentSolution:
    solved = _highs_solve(problem, integral=True, time_limit=time_limit)
    if solved is None:
        return AssignmentSolution({}, 0.0, 0.0)
    x, system = solved
    assignment: dict[int, int] = {}
    for idx in np.flatnonzero(x > 0.5):
        assignment[int(system.pair_jobs[idx])] = int(system.pair_cols[idx])
    objective = float(sum(problem.utilities[i, j]
                          for i, j in assignment.items()))
    return AssignmentSolution(assignment, objective, 0.0)


def _solve_lp_relaxation(problem: AssignmentProblem,
                         time_limit: float | None = None,
                         ) -> tuple[float | None, np.ndarray | None,
                                    np.ndarray | None, np.ndarray | None]:
    """LP relaxation of the instance: ``(bound, x, pair_jobs, pair_cols)``.

    ``bound`` is the relaxation optimum — an upper bound on any integral
    objective — or None for an empty instance.
    """
    solved = _highs_solve(problem, integral=False, time_limit=time_limit)
    if solved is None:
        return None, None, None, None
    x, system = solved
    bound = float(-system.cost @ x)
    return bound, x, system.pair_jobs, system.pair_cols


# -- LP relaxation + deterministic rounding backend ---------------------------

def _solve_lp_round(problem: AssignmentProblem,
                    time_limit: float | None = None,
                    warm_start: dict[int, int] | None = None,
                    ) -> AssignmentSolution:
    """Solve the LP relaxation, then round deterministically.

    The relaxation of this constraint shape (one row per job, one capacity
    row per GPU type) is integral except where jobs tie over scarce
    capacity, so most of ``x`` lands on {0, 1} already.  Rounding walks the
    LP support by utility-per-GPU (warm pairs win ties, then larger LP
    weight), taking a pair whenever the job is free and capacity remains —
    capacity violations are repaired by construction.  A final fill pass
    over the full feasible set catches jobs the LP zeroed out but cheap
    leftover capacity can still serve.
    """
    bound, x, pair_jobs, pair_cols = _solve_lp_relaxation(
        problem, time_limit=time_limit)
    if bound is None:
        return AssignmentSolution({}, 0.0, 0.0)

    remaining = dict(problem.capacities)
    assignment: dict[int, int] = {}

    def try_assign(i: int, j: int) -> bool:
        gpu_type = problem.config_types[j]
        need = int(problem.config_gpus[j])
        if remaining.get(gpu_type, 0) < need:
            return False
        remaining[gpu_type] -= need
        assignment[i] = j
        return True

    for i, j in sorted(problem.forced.items()):
        if not try_assign(i, j):
            raise RuntimeError(f"cannot satisfy forced assignment ({i}, {j})")

    warm = warm_start or {}
    util = problem.utilities
    gpus = problem.config_gpus

    support = np.flatnonzero(x > _LP_EPS)
    candidates = []
    for idx in support.tolist():
        i, j = int(pair_jobs[idx]), int(pair_cols[idx])
        if i in assignment or util[i, j] <= 0:
            continue
        candidates.append((
            -util[i, j] / max(1, int(gpus[j])),  # goodput per GPU, desc
            0 if warm.get(i) == j else 1,        # sticky: warm pairs first
            -float(x[idx]),                      # then larger LP weight
            int(gpus[j]), i, j,
        ))
    candidates.sort()
    for _, _, _, _, i, j in candidates:
        if i not in assignment:
            try_assign(i, j)

    # Fill pass: jobs the LP support left out, over the leftover capacity.
    _greedy_fill(problem, assignment, remaining, warm)

    objective = float(sum(util[i, j] for i, j in assignment.items()))
    return AssignmentSolution(assignment, objective, 0.0, lp_bound=bound)


def _greedy_fill(problem: AssignmentProblem, assignment: dict[int, int],
                 remaining: dict[str, int],
                 warm: dict[int, int] | None = None) -> None:
    """Assign still-free jobs' positive-utility pairs into leftover
    capacity, highest utility-per-GPU first (ties: warm pair, fewer GPUs,
    then job id / config id — fully deterministic).  Shared by the
    rounding and greedy backends; mutates ``assignment``/``remaining`` in
    place."""
    warm = warm or {}
    util = problem.utilities
    gpus = problem.config_gpus
    pairs = []
    for i, j in problem.feasible_pairs():
        if i in assignment or util[i, j] <= 0:
            continue
        pairs.append((
            -util[i, j] / max(1, int(gpus[j])),
            0 if warm.get(i) == j else 1,
            int(gpus[j]), i, j,
        ))
    pairs.sort()
    for _, _, _, i, j in pairs:
        if i in assignment:
            continue
        gpu_type = problem.config_types[j]
        need = int(gpus[j])
        if remaining.get(gpu_type, 0) >= need:
            remaining[gpu_type] -= need
            assignment[i] = j


# -- greedy backend ----------------------------------------------------------

def _solve_greedy(problem: AssignmentProblem) -> AssignmentSolution:
    """Assign pairs in order of utility per GPU, honouring forced pairs.

    Ties break by GPU count, then job id, then config id — never by dict
    or insertion order — so the fallback tier is reproducible across
    seed changes.
    """
    remaining = dict(problem.capacities)
    assignment: dict[int, int] = {}

    for i, j in sorted(problem.forced.items()):
        gpu_type = problem.config_types[j]
        need = int(problem.config_gpus[j])
        if remaining.get(gpu_type, 0) < need:
            raise RuntimeError(f"cannot satisfy forced assignment ({i}, {j})")
        remaining[gpu_type] -= need
        assignment[i] = j

    _greedy_fill(problem, assignment, remaining)
    objective = float(sum(problem.utilities[i, j]
                          for i, j in assignment.items()))
    return AssignmentSolution(assignment, objective, 0.0)
