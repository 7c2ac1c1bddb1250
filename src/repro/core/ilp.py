"""0/1 ILP solver for the Sia assignment problem (Section 3.4).

The problem: choose at most one configuration per job, maximizing the sum of
(job, configuration) utilities plus an allocation incentive ``lambda`` per
allocated job, subject to per-GPU-type capacity.  Equation (2)'s penalty
``lambda * (1 - ||A_i||_1)`` is, up to a constant, an extra ``lambda`` of
utility on every feasible pair, which is how we encode it.

Interchangeable backends (:data:`BACKENDS`):

* ``milp``       — the exact optimum (the default; stands in for the
  paper's CVXPY/GLPK_MI).  :func:`_solve_lattice` answers first: each
  job's own best option when those fit capacity together, else a
  max-plus DP over the used capacity of the GPU types that can bind.
  The DP keeps only the states that can still reach the optimum: a
  greedy incumbent sets a floor, and a state that stays below it even if
  every later job takes its best option is dropped, so no value the
  answer reads changes.  Ties follow one written rule, stated on
  :func:`_solve_lattice`, where the paper's GLPK_MI breaks them by its
  own internals.  HiGHS's mixed-integer solver takes only lattices above
  :data:`_DP_MAX_WORK`.  It runs at optimality gap 0
  (:data:`_MILP_OPTIONS`) with its feasibility-jump primal heuristic
  off: that heuristic hunts for a first feasible point, but this problem
  always has one (the forced pairs, every other variable 0), and
  branch-and-bound still proves optimality, so the answers are
  unchanged.
* ``tiered``     — ``milp`` under its former name: it runs the same exact
  solve at every size and reports ``backend='milp'``.  The name stays
  valid for run recipes and replays that ask for it.
* ``greedy``     — the lattice DP's incumbent over every GPU type
  (:func:`_incumbent`): each job takes its best option, then jobs on an
  over-capacity type give up what loses the least value per GPU freed
  (the ablation baseline; fast, no bound).

:func:`solve_assignment` runs one backend and raises when it fails; there
is no fallback to another backend and no time limit, as in the paper's
one GLPK_MI solve per round.  The simulator's ``resilient`` guard, the one
place that catches a bad round, then carries the previous round forward.

scipy, which holds HiGHS, is imported by the HiGHS path itself at its
first call, not on module load: only an oversized lattice reaches it.
"""

from __future__ import annotations

import heapq
import math
import re
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from scipy.optimize import LinearConstraint

#: every backend :func:`solve_assignment` accepts, in quality order.
#: ``repro.core.fork`` re-exports this tuple so the replay CLI stays in
#: sync; add backends here, nowhere else.
BACKENDS = ("milp", "tiered", "greedy")

#: HiGHS's MIP feasibility tolerance, its own default, passed on every
#: MILP (:data:`_MILP_OPTIONS`).
_MIP_TOL = 1e-6

#: HiGHS options every solve passes: optimality gap 0, relative and
#: absolute, so HiGHS stops only at the optimum; the feasibility
#: tolerance above; and the feasibility-jump primal heuristic off.  That
#: heuristic searches for a first feasible point, but the assignment
#: problem always has one: the forced pairs with every other variable at
#: 0.  On seeded sia-helios64 rounds it was over half of each MILP solve,
#: and skipping it leaves every assignment unchanged: branch-and-bound
#: still proves optimality.
_MILP_OPTIONS = {"mip_heuristic_run_feasibility_jump": False,
                 "mip_rel_gap": 0.0, "mip_abs_gap": 0.0,
                 "mip_feasibility_tolerance": _MIP_TOL}

#: work cap of the ``milp`` lattice DP, in lattice cells x (job, option)
#: pairs, estimated before any table is built: above it HiGHS solves the
#: instance.  The estimate is the cost of a DP whose incumbent floor
#: drops no state, as on flat utilities: about 2 ns per unit in the
#: dense step, and at 4M units its median time met HiGHS's (~8 ms) on
#: sia-helios64-shaped instances with scaled capacities.  Every captured
#: sia-helios64 round is under 1.5M.  Where the floor prunes, the DP
#: touches far fewer: its 460 seed-1 sia-helios64 rounds expand 1.2M
#: (state, shift) pairs, where dense stages would update 184M cells.
_DP_MAX_WORK = 4_000_000

#: a lattice-DP stage expands its live states from a dict while they
#: number at most this share of the lattice's cells; once a stage holds
#: more, it and every later stage fill their whole box with one
#: ``np.maximum`` per shift.  A (state, shift) pair costs about 110 ns in
#: the dict and a box cell about 3 ns per shift in numpy.  One pass on a 2-vCPU
#: container over the policy bench's flat-utility instances, where the
#: floor drops almost nothing: 43 ms with every stage dense, 43 ms at
#: 1/32, 63 ms at 1/16, 1.28 s never switching; over the 524 seed-1
#: sia-helios64 instances: 660 ms, 199 ms at 1/32, 175 ms never switching.
_DENSE_SHARE = 1 / 32


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


@dataclass
class AssignmentSolution:
    """Chosen configuration per job (jobs absent receive nothing)."""

    assignment: dict[int, int]
    objective: float
    solve_time: float
    #: concrete backend that produced the solution ('' for hand-built
    #: instances).
    backend: str = ""
    #: which of ``milp``'s paths answered: ``argmax``, ``dp`` or ``highs``
    #: (:func:`_solve_milp`); '' for the other backends.
    path: str = ""
    #: (state, shift) pairs ``milp``'s lattice DP expanded on the way, 0
    #: when it did not run (:func:`_solve_lattice`).
    expanded: int = 0

    def gpus_used(self, problem: AssignmentProblem) -> dict[str, int]:
        used: dict[str, int] = {}
        for _, col in self.assignment.items():
            t = problem.config_types[col]
            used[t] = used.get(t, 0) + int(problem.config_gpus[col])
        return used


def solve_assignment(problem: AssignmentProblem, backend: str = "milp",
                     tracer: Tracer | None = None,
                     ) -> AssignmentSolution:
    """Solve one assignment instance with the chosen backend.

    ``tracer`` records an ``ilp_solve`` span around the backend call, annotated with ``path``
    and ``expanded`` when ``milp`` ran.
    """
    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span("ilp_solve", backend=backend, jobs=problem.n_jobs,
                     configs=problem.n_configs) as span:
        start = time.perf_counter()
        if backend in ("milp", "tiered"):
            solution = _solve_milp(problem)
            span.annotate(path=solution.path, expanded=solution.expanded)
        elif backend == "greedy":
            solution = _solve_greedy(problem)
        else:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        solution.backend = "milp" if backend == "tiered" else backend
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


# -- HiGHS MILP (via scipy) ---------------------------------------------------

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


def _capacity_types(problem: AssignmentProblem,
                    ) -> tuple[list[int], np.ndarray]:
    """Every GPU type the instance names, as ``(caps, config_pos)``: the
    types run in ``capacities`` order, then in first appearance among the
    configurations; ``caps[k]`` is type ``k``'s capacity, 0 for a type
    ``capacities`` lacks, and ``config_pos[j]`` is column ``j``'s type."""
    types = list(problem.capacities)
    pos = {t: k for k, t in enumerate(types)}
    for t in problem.config_types:
        if t not in pos:
            pos[t] = len(types)
            types.append(t)
    caps = [int(problem.capacities.get(t, 0)) for t in types]
    config_pos = np.fromiter((pos[t] for t in problem.config_types),
                             dtype=np.int64, count=len(problem.config_types))
    return caps, config_pos


def _assemble(problem: AssignmentProblem) -> _PairSystem | None:
    """Sparse constraint assembly: one variable per feasible (job, config)
    pair; each constraint row touches only its own pairs, so the matrix has
    exactly ``2 * n_vars`` potential nonzeros regardless of problem size
    (the old dense assembly allocated ``n_rows * n_vars`` zeros).  Returns
    None when no pair is feasible."""
    from scipy.optimize import LinearConstraint
    from scipy.sparse import csr_array

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
    # in :func:`_capacity_types` order; a type ``capacities`` lacks has
    # capacity 0.
    caps, config_type_pos = _capacity_types(problem)
    pair_type = config_type_pos[pair_cols]
    hit_types = np.unique(pair_type)  # sorted == _capacity_types order
    type_row = np.full(len(caps), -1, dtype=np.int64)
    type_row[hit_types] = n_job_rows + np.arange(hit_types.size)

    variables = np.arange(n_vars)
    entry_rows = np.concatenate([job_row, type_row[pair_type]])
    entry_cols = np.concatenate([variables, variables])
    entry_vals = np.concatenate([
        np.ones(n_vars),
        problem.config_gpus[pair_cols].astype(float),
    ])
    n_rows = n_job_rows + int(hit_types.size)
    a_matrix = csr_array((entry_vals, (entry_rows, entry_cols)),
                         shape=(n_rows, n_vars))
    uppers = np.concatenate([
        np.ones(n_job_rows),
        np.asarray(caps, dtype=float)[hit_types],
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


def _solve_milp(problem: AssignmentProblem) -> AssignmentSolution:
    """The ``milp`` backend: :func:`_solve_lattice` where the lattice fits
    :data:`_DP_MAX_WORK`, HiGHS above it.  The solution's ``path`` names
    the one that ran."""
    expanded: list[int] = []
    answer = _solve_lattice(problem, expanded)
    if answer is None:
        solution = _solve_highs_milp(problem)
        solution.path = "highs"
    else:
        path, assignment = answer
        solution = _solution(problem, assignment)
        solution.path = path
    solution.expanded = sum(expanded)
    return solution


def _solve_highs_milp(problem: AssignmentProblem) -> AssignmentSolution:
    """HiGHS's MILP optimum, in ascending job order.  Raises unless HiGHS
    proves it."""
    from scipy.optimize import Bounds, OptimizeWarning, milp

    system = _assemble(problem)
    if system is None:
        return AssignmentSolution({}, 0.0, 0.0)
    # scipy's ``milp`` consumes (pops from) its options, so build a fresh
    # dict per call.
    options = dict(_MILP_OPTIONS)
    with warnings.catch_warnings():
        # Silence what scipy says about the _MILP_OPTIONS keys, nothing
        # else: its ``milp`` knows five options and warns (RuntimeWarning)
        # on every call passing others through to HiGHS, naming them as
        # one set, and a HiGHS build that predates an option warns
        # (OptimizeWarning) that it does not know it, then solves with
        # that option at its default (the same answer, only slower).
        key = "'(?:" + "|".join(map(re.escape, _MILP_OPTIONS)) + ")'"
        unknown = rf"Unrecognized options detected: \{{{key}(?:, {key})*\}}\."
        warnings.filterwarnings("ignore", category=RuntimeWarning,
                                message=unknown)
        warnings.filterwarnings("ignore", category=OptimizeWarning,
                                message=f".*{key}")
        result = milp(c=system.cost, constraints=system.constraints,
                      integrality=np.ones(system.n_vars),
                      bounds=Bounds(system.lb, system.ub), options=options)
    # status 0 = optimal; anything else fails.
    if result.status != 0 or result.x is None:
        raise RuntimeError(f"MILP failed: {result.message}")
    chosen = np.flatnonzero(np.asarray(result.x) > 0.5)
    return _solution(problem, {int(system.pair_jobs[idx]):
                               int(system.pair_cols[idx])
                               for idx in chosen})


def _solution(problem: AssignmentProblem,
              assignment: dict[int, int]) -> AssignmentSolution:
    """``assignment`` with its objective, summed in its own order."""
    objective = float(sum(problem.utilities[i, j]
                          for i, j in assignment.items()))
    return AssignmentSolution(assignment, objective, 0.0)


# -- capacity-lattice DP (milp's exact path) ----------------------------------

def _solve_lattice(problem: AssignmentProblem,
                   expanded: list[int] | None = None,
                   ) -> tuple[str, dict[int, int]] | None:
    """An optimal assignment with the path that found it (``argmax`` or
    ``dp``), or None when the lattice's work estimate exceeds
    :data:`_DP_MAX_WORK` and HiGHS must solve it.

    First, each job takes its own best option (:func:`_solve_argmax`);
    when those fit capacity together, that is the answer, whatever the
    lattice would cost.  Else a max-plus DP over used capacity: GPU types
    whose summed per-job maximum demand fits their capacity can never bind
    and are dropped.  The state is the used GPUs of the rest, in a box
    that grows as jobs are added; ``tables[i + 1]`` holds the best value
    of jobs ``0..i`` at each live state.  A state is live unless even
    every later job's best option leaves it short of the incumbent floor
    (:func:`_incumbent`): such a state cannot reach the optimum, so
    dropping it changes no value the answer reads.  A stage holds its
    live states in a dict while they are few (:data:`_DENSE_SHARE`), else
    the whole box in an array.  A type ``capacities`` lacks has capacity
    0, as in HiGHS's model.  Raises RuntimeError when the forced pairs
    exceed capacity.  ``expanded``, when given, receives the DP's count
    of (state, shift) expansions.

    The tie rule: options rank in :func:`_options` order, "no allocation"
    first.  The argmax path gives each job its first best option.  The DP
    starts from the optimal final cell with the lowest mixed-radix key
    and backtracks, giving each job the first option whose predecessor
    plus value reproduces the cell's value exactly.  Every cell the rule
    reads lies on a path to an optimal final cell, so it holds the same
    value whether its stage is a dict or an array and whatever the floor
    drops: neither changes the answer.
    """
    caps, config_pos = _capacity_types(problem)
    assignment = _solve_argmax(problem, caps, config_pos)
    if assignment is not None:
        return "argmax", assignment
    # Each row gains a last entry 0.0, the value of option -1.
    rows = [[*row, 0.0] for row in problem.utilities.tolist()]
    config_pos = config_pos.tolist()
    gpus = problem.config_gpus.tolist()

    # Each job's options and its largest demand on every type.
    options = _options(problem)
    demand = [[0] * len(caps) for _ in range(problem.n_jobs)]
    for cols, need in zip(options, demand):
        for j in cols:
            if j >= 0 and gpus[j] > need[config_pos[j]]:
                need[config_pos[j]] = gpus[j]
    total = [sum(need[k] for need in demand) for k in range(len(caps))]
    binding = [k for k in range(len(caps)) if total[k] > caps[k]]
    cells = math.prod(min(caps[k], total[k]) + 1 for k in binding)
    if cells * sum(map(len, options)) > _DP_MAX_WORK:
        return None

    # Lattice dimension of each type (-1: never binds), and the
    # (dimension, GPUs) shift each option moves the state by; the last
    # entry is option -1's.  A dummy dimension of capacity 0 stands in
    # when no type binds.  A state's key is its mixed-radix index over
    # the dimensions' capacities.
    dim = [-1] * len(caps)
    for d, k in enumerate(binding):
        dim[k] = d
    shifts = [(dim[k], g) if dim[k] >= 0 else (-1, 0)
              for k, g in zip(config_pos, gpus)] + [(-1, 0)]
    room = [caps[k] for k in binding] or [0]
    radix = [n + 1 for n in room]
    stride = [math.prod(radix[d + 1:]) for d in range(len(radix))]
    moves, _ = _moves(rows, options, shifts, room)

    # The floor: ``rest[i]`` sums every job's best option from job ``i``
    # on, and a state of jobs ``0..i - 1`` is dropped when even
    # ``rest[i]`` more leaves it below ``floor``.
    rest = [0.0] * (problem.n_jobs + 1)
    for i in range(problem.n_jobs - 1, -1, -1):
        rest[i] = rest[i + 1] + max((m[2] for m in moves[i]),
                                    default=-math.inf)
    picks = _incumbent(moves, room)
    floor = -math.inf
    if picks is not None:
        # Less a relative slack far above the rounding of these sums, so
        # no state on a path to an optimal cell is dropped.
        incumbent = sum(value for _, _, value in picks)
        floor = incumbent - 4e-6 * max(1.0, abs(incumbent), abs(rest[0]))

    tables: list[dict[int, float] | np.ndarray] = [{0: 0.0}]
    box = [1] * len(room)
    work = 0
    for i, job in enumerate(moves):
        prev = tables[-1]
        if isinstance(prev, dict) and len(prev) > _DENSE_SHARE * cells:
            prev = _dense(prev, box, radix, stride)
        for d, k in enumerate(binding):
            box[d] = min(room[d], box[d] - 1 + demand[i][k]) + 1
        if isinstance(prev, dict):
            work += len(prev) * len(job)
            tables.append(_sparse_step(prev, job, room, radix, stride,
                                       floor - rest[i + 1]))
        else:
            work += prev.size * len(job)
            tables.append(_dense_step(prev, job, box))
    if expanded is not None:
        expanded.append(work)

    # The optimal final cell with the lowest key.
    final = tables[-1]
    if isinstance(final, dict):
        target = max(final.values(), default=-math.inf)
        key = min((k for k, value in final.items() if value == target),
                  default=0)
        cell = [key // s % r for s, r in zip(stride, radix)]
    else:  # the first maximum in C order
        cell = [int(c) for c in
                np.unravel_index(int(np.argmax(final)), final.shape)]
        target = final[tuple(cell)]
        key = sum(c * s for c, s in zip(cell, stride))
    if target == -math.inf:
        raise RuntimeError("MILP failed: the forced assignments exceed "
                           "capacity")

    # Backtrack.  Option -1 and a type that never binds shift dimension
    # -1 by 0 GPUs, which leaves ``cell`` and ``key`` as they are.
    chosen: dict[int, int] = {}
    for i in range(problem.n_jobs - 1, -1, -1):
        prev = tables[i]
        for j in options[i]:
            d, g = shifts[j]
            src = list(cell)
            src[d] -= g
            if src[d] < 0:
                continue
            if isinstance(prev, dict):
                reached = prev.get(key - g * stride[d], -math.inf)
            elif any(c >= n for c, n in zip(src, prev.shape)):
                continue
            else:
                reached = prev[tuple(src)]
            if reached + rows[i][j] == target:
                break
        cell, key, target = src, key - g * stride[d], reached
        if j >= 0:
            chosen[i] = j
    return "dp", dict(sorted(chosen.items()))


def _options(problem: AssignmentProblem) -> list[list[int]]:
    """Each job's options as config columns, -1 ("no allocation") first;
    a forced job has only its pair."""
    feasible = ~np.isnan(problem.utilities)
    return [[problem.forced[i]] if i in problem.forced
            else [-1, *np.flatnonzero(feasible[i]).tolist()]
            for i in range(problem.n_jobs)]


def _moves(rows: list[list[float]], options: list[list[int]],
           shifts: list[tuple[int, int]], room: list[int],
           ) -> tuple[list[list[tuple[int, int, float]]],
                      list[dict[tuple[int, int], int]]]:
    """Each job's best value per ``(dimension, GPUs)`` shift that fits
    ``room``, as ``(dimension, GPUs, value)`` moves in first-appearance
    order, and the option column that gives each one.  ``rows[i][j]`` is
    option ``j``'s value and ``shifts[j]`` its shift (dimension -1: no
    capacity moves); among options with one shift the first best wins."""
    moves, columns = [], []
    for row, cols in zip(rows, options):
        best: dict[tuple[int, int], int] = {}
        for j in cols:
            d, g = shifts[j]
            if d >= 0 and g > room[d]:
                continue
            if (d, g) not in best or row[best[(d, g)]] < row[j]:
                best[(d, g)] = j
        moves.append([(d, g, row[j]) for (d, g), j in best.items()])
        columns.append(best)
    return moves, columns


def _incumbent(moves: list[list[tuple[int, int, float]]],
               room: list[int]) -> list[tuple[int, int, float]] | None:
    """One feasible assignment, one move per job: the lattice DP's floor
    under the optimum and, over every GPU type, the ``greedy`` backend's
    answer.  None when the forced pairs exceed capacity.

    ``moves[i]`` lists job ``i``'s ``(dimension, GPUs, value)`` shifts
    and ``room`` each dimension's capacity.  Every job starts at its best
    shift.  While a dimension is over capacity, the job on it that loses
    the least value per GPU freed takes the change, to a shift that
    fits; ties go to the lowest job, then its best-ranked shift.  Then
    each job, in order, takes its best shift that now fits.

    Each over-capacity dimension keeps a lazy heap of its jobs' cheapest
    changes.  Changes only fill the other dimensions, so a job's cheapest
    change can only get dearer while its shift stands: a heap entry is a
    lower bound, rechecked when it comes to the top.
    """
    if not all(moves):
        return None
    ranked = [sorted(job, key=lambda m: m[2], reverse=True) for job in moves]
    pick = [job[0] for job in ranked]
    used = [0] * len(room)
    for d, g, _ in pick:
        if d >= 0:
            used[d] += g

    def cheapest(i: int) -> tuple[float, int, int] | None:
        """Job ``i``'s cheapest change that frees GPUs on its dimension
        and fits, as ``(loss per GPU freed, i, rank)``."""
        d, g, value = pick[i]
        best = None
        for rank, (d2, g2, value2) in enumerate(ranked[i]):
            if d2 == d:
                freed = g - g2
                if freed <= 0:
                    continue
            elif d2 >= 0 and used[d2] + g2 > room[d2]:
                continue
            else:
                freed = g
            if best is None or (value - value2) / freed < best[0]:
                best = ((value - value2) / freed, i, rank)
        return best

    for over in range(len(room)):
        if used[over] <= room[over]:
            continue
        heap = [entry for entry in (cheapest(i) for i, m in enumerate(pick)
                                    if m[0] == over) if entry is not None]
        heapq.heapify(heap)
        while used[over] > room[over]:
            if not heap:
                return None
            entry = heapq.heappop(heap)
            i = entry[1]
            fresh = cheapest(i)
            if fresh == entry:  # still the job's cheapest: take it
                move = ranked[i][entry[2]]
                used[over] -= pick[i][1]
                if move[0] >= 0:
                    used[move[0]] += move[1]
                pick[i] = move
                if move[0] == over:
                    fresh = cheapest(i)
            # Re-key a stale entry; queue a job's next change on ``over``.
            if fresh is not None and pick[i][0] == over:
                heapq.heappush(heap, fresh)
    for i, job in enumerate(ranked):
        d, g, _ = pick[i]
        if d >= 0:
            used[d] -= g
        pick[i] = next(m for m in job
                       if m[0] < 0 or used[m[0]] + m[1] <= room[m[0]])
        if pick[i][0] >= 0:
            used[pick[i][0]] += pick[i][1]
    return pick


def _sparse_step(states: dict[int, float],
                 moves: list[tuple[int, int, float]], room: list[int],
                 radix: list[int], stride: list[int],
                 floor: float) -> dict[int, float]:
    """One DP stage over live states only: every state takes every shift
    that fits, and a new state below ``floor`` is dropped.  States run in
    descending value, so each shift stops at the first one that falls
    short."""
    ranked = sorted(states.items(), key=lambda item: item[1], reverse=True)
    out: dict[int, float] = {}
    get = out.get
    for d, g, value in moves:
        need = floor - value
        if d < 0:
            for key, base in ranked:
                if base < need:
                    break
                total = base + value
                if get(key, -math.inf) < total:
                    out[key] = total
            continue
        step, size, limit = stride[d], radix[d], room[d] - g
        delta = g * step
        for key, base in ranked:
            if base < need:
                break
            if key // step % size <= limit:
                total = base + value
                if get(key + delta, -math.inf) < total:
                    out[key + delta] = total
    return out


def _dense(states: dict[int, float], box: list[int], radix: list[int],
           stride: list[int]) -> np.ndarray:
    """Live states as a table over ``box``, -inf elsewhere."""
    keys = np.fromiter(states.keys(), dtype=np.int64, count=len(states))
    table = np.full(box, -math.inf)
    table[tuple(keys // s % r for s, r in zip(stride, radix))] = \
        np.fromiter(states.values(), dtype=float, count=len(states))
    return table


def _dense_step(prev: np.ndarray, moves: list[tuple[int, int, float]],
                box: list[int]) -> np.ndarray:
    """One DP stage over every cell of ``box``: one ``np.maximum`` per
    shift."""
    table = np.full(box, -math.inf)
    for d, g, value in moves:
        dst = [slice(0, n) for n in prev.shape]
        src = list(dst)
        if d >= 0:
            stop = min(g + prev.shape[d], box[d])
            dst[d], src[d] = slice(g, stop), slice(0, stop - g)
        view = table[tuple(dst)]
        np.maximum(view, prev[tuple(src)] + value, out=view)
    return table


def _solve_argmax(problem: AssignmentProblem, caps: list[int],
                  config_pos: np.ndarray) -> dict[int, int] | None:
    """Every job's first best option in :func:`_options` order, when
    together they fit ``caps``; else None."""
    util = problem.utilities
    n_jobs, n_configs = util.shape
    # "No allocation" (value 0) first, then one column per configuration.
    values = np.zeros((n_jobs, n_configs + 1))
    values[:, 1:] = np.where(np.isnan(util), -math.inf, util)
    if problem.forced:
        rows = list(problem.forced)
        cols = [col + 1 for col in problem.forced.values()]
        kept = values[rows, cols]
        values[rows] = -math.inf
        values[rows, cols] = kept
    pick = values.argmax(axis=1)
    allocated = np.flatnonzero(pick)
    cols = pick[allocated] - 1
    used = np.bincount(config_pos[cols], weights=problem.config_gpus[cols],
                       minlength=len(caps))
    if np.any(used > np.asarray(caps)):
        return None
    return dict(zip(allocated.tolist(), cols.tolist()))


# -- greedy backend ----------------------------------------------------------

def _solve_greedy(problem: AssignmentProblem) -> AssignmentSolution:
    """:func:`_incumbent` with every GPU type as a dimension, in ascending
    job order; raises RuntimeError when the forced pairs exceed capacity."""
    caps, config_pos = _capacity_types(problem)
    rows = [[*row, 0.0] for row in problem.utilities.tolist()]
    shifts = [*zip(config_pos.tolist(), problem.config_gpus.tolist()),
              (-1, 0)]
    moves, columns = _moves(rows, _options(problem), shifts, caps)
    picks = _incumbent(moves, caps)
    if picks is None:
        raise RuntimeError("greedy: the forced pairs exceed capacity")
    chosen = (columns[i][d, g] for i, (d, g, _) in enumerate(picks))
    return _solution(problem, {i: j for i, j in enumerate(chosen) if j >= 0})
