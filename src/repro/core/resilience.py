"""Resilient policy layer: solver fallback ladder + carry-forward plans.

Figure 9 shows policy solve time growing with cluster scale, and a
production round-based scheduler must produce *some* feasible decision
every round (Gavel, Pollux make the same argument).  This module holds
the two degradation steps:

* :class:`ResilientSolver` wraps :func:`repro.core.ilp.solve_assignment`
  with a per-round wall-clock budget, the fixed fallback ladder
  ``primary -> lp_round -> greedy`` (:data:`FALLBACKS`), and a circuit
  breaker that skips the primary for a cooldown after repeated
  timeouts/failures.  ``SiaPolicyParams`` accepts a
  :class:`ResilienceConfig` to route its ILP through one.  The
  LP-rounding tier sits ahead of greedy because it shares the MILP's
  constraint system at a fraction of the cost — a budget-blown MILP
  usually still affords one LP solve.
* :func:`carry_forward_plan` is the last resort: the previous round's
  still-feasible allocations intersected with the surviving cluster.  The
  simulator substitutes it for any round whose ``decide`` raises or whose
  :class:`~repro.schedulers.base.RoundPlan` fails validation, when
  ``SimulatorConfig.resilient`` is set, so one bad round never kills a
  run.

Both report what they did through ``RoundPlan.backend`` /
``RoundPlan.degraded``, which the simulator records per round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.core import ilp
from repro.core.health import deterministic_jitter
from repro.core.ilp import AssignmentProblem, AssignmentSolution
from repro.core.types import Allocation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schedulers.base import JobView, RoundPlan

#: backends tried, in order, after the primary fails — the fast tiers
#: between the primary solver and carry-forward.  Entries equal to the
#: primary are skipped; every non-final tier runs under the round budget,
#: the final tier runs unbudgeted (it must produce *something*).
FALLBACKS = ("lp_round", "greedy")


class SolverExhaustedError(RuntimeError):
    """Every backend in the fallback ladder failed for this round."""


@dataclass
class ResilienceConfig:
    """Budget, retry and circuit-breaker knobs for :class:`ResilientSolver`."""

    #: wall-clock seconds the primary solver may spend per round; also
    #: passed to HiGHS as its time limit so the MILP stops at the budget.
    solve_budget_s: float = 5.0
    #: consecutive primary-solver failures/timeouts that open the breaker.
    breaker_threshold: int = 3
    #: rounds the breaker stays open (primary solver skipped) once tripped.
    breaker_cooldown_rounds: int = 10
    #: retry a failed/overrun primary attempt once with a relaxed budget
    #: before degrading to greedy (skipped when the primary *is* greedy —
    #: a relaxed time budget only means something to the budgeted MILP).
    retry_primary: bool = True
    #: relaxed-budget multiplier for the retry attempt.
    retry_budget_factor: float = 2.0
    #: deterministic jitter amplitude (fraction) on the relaxed budget.
    retry_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.solve_budget_s <= 0:
            raise ValueError("solve_budget_s must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_rounds < 1:
            raise ValueError("breaker_cooldown_rounds must be >= 1")
        if self.retry_budget_factor < 1:
            raise ValueError("retry_budget_factor must be >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")


class ResilientSolver:
    """Budgeted, circuit-broken wrapper around ``solve_assignment``.

    :meth:`solve` never raises on solver trouble: it degrades through the
    ladder primary -> :data:`FALLBACKS` (``lp_round -> greedy``) and
    returns ``(solution, backend, degraded)``.
    Only when *every* backend fails does it raise
    :class:`SolverExhaustedError`, signalling the caller to carry forward.
    """

    #: observability tracer; emits one ``solve_attempt`` span per backend
    #: tried, annotated with its outcome (ok / timeout / error).
    tracer: Tracer = NULL_TRACER
    #: shared metrics registry (injected by the owning policy/scheduler);
    #: mirrors :attr:`stats` into ``resilience.*`` counters so breaker trips
    #: and per-backend rounds reach round snapshots and saved results.
    metrics: MetricsRegistry | None = None

    def __init__(self, config: ResilienceConfig | None = None):
        self.config = config or ResilienceConfig()
        self._consecutive_failures = 0
        self._breaker_open_rounds = 0
        #: backend name -> rounds served by it (plus breaker trip count).
        self.stats: dict[str, int] = {"breaker_trips": 0}
        #: "<backend>.<outcome>" -> attempt count (ok / timeout / error),
        #: mirrored into ``resilience.attempt.*`` counters so per-attempt
        #: outcomes persist through saved results.
        self.attempt_outcomes: dict[str, int] = {}
        #: lifetime relaxed-budget retries; also the jitter token, so the
        #: retry budget varies deterministically without RNG state.
        self.retries = 0

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open_rounds > 0

    def _count(self, backend: str) -> None:
        self.stats[backend] = self.stats.get(backend, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(f"resilience.backend.{backend}").inc()

    def _record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.breaker_threshold:
            self._breaker_open_rounds = self.config.breaker_cooldown_rounds
            self.stats["breaker_trips"] += 1
            if self.metrics is not None:
                self.metrics.counter("resilience.breaker_trips").inc()
            self._consecutive_failures = 0

    def _record_attempt(self, backend: str, outcome: str) -> None:
        key = f"{backend}.{outcome}"
        self.attempt_outcomes[key] = self.attempt_outcomes.get(key, 0) + 1
        if self.metrics is not None:
            self.metrics.counter(f"resilience.attempt.{key}").inc()

    def _attempt(self, problem: AssignmentProblem, backend: str,
                 budget: float, *, retry: bool = False,
                 warm_start: dict[int, int] | None = None,
                 reuse_tolerance: float | None = None,
                 ) -> tuple[AssignmentSolution | None, str]:
        """One budgeted attempt; returns (solution-or-None, outcome)."""
        attrs = {"backend": backend}
        if retry:
            attrs["retry"] = True
        with self.tracer.span("solve_attempt", **attrs) as attempt:
            try:
                solution = ilp.solve_assignment(problem, backend=backend,
                                                time_limit=budget,
                                                tracer=self.tracer,
                                                warm_start=warm_start,
                                                reuse_tolerance=reuse_tolerance)
                if solution.solve_time > budget:
                    attempt.annotate(outcome="timeout")
                    self._record_attempt(backend, "timeout")
                    return solution, "timeout"
                attempt.annotate(outcome="ok")
                self._record_attempt(backend, "ok")
                return solution, "ok"
            except Exception:
                attempt.annotate(outcome="error")
                self._record_attempt(backend, "error")
                return None, "error"

    def solve(self, problem: AssignmentProblem, primary: str = "milp",
              warm_start: dict[int, int] | None = None,
              reuse_tolerance: float | None = None,
              ) -> tuple[AssignmentSolution, str, bool]:
        """Solve with fallback; returns (solution, backend_used, degraded).

        ``warm_start``/``reuse_tolerance`` are forwarded to every backend
        attempt (see :func:`repro.core.ilp.solve_assignment`); the returned
        backend name is the solution's concrete backend when it differs
        from the tier tried (``tiered`` resolution, ``reuse`` skips).
        """
        budget = self.config.solve_budget_s
        if self._breaker_open_rounds > 0:
            self._breaker_open_rounds -= 1
            self.tracer.instant("breaker_skip", backend=primary,
                                rounds_left=self._breaker_open_rounds)
        else:
            solution, outcome = self._attempt(
                problem, primary, budget,
                warm_start=warm_start, reuse_tolerance=reuse_tolerance)
            if outcome == "ok":
                self._consecutive_failures = 0
                name = solution.backend or primary
                self._count(name)
                return solution, name, False
            if self.config.retry_primary and primary != "greedy":
                # Many MILP timeouts are borderline; one retry with a
                # slightly longer leash often beats dropping straight to
                # greedy quality.  The budget is a solver knob (not a
                # sleep), and its jitter is hash-derived so resumes replay
                # identical budgets.  At most one breaker failure is
                # recorded per solve() call either way.
                self.retries += 1
                relaxed = budget * self.config.retry_budget_factor * (
                    1.0 + deterministic_jitter(f"solver-retry:{self.retries}",
                                               self.config.retry_jitter))
                self.tracer.instant("solve_retry", backend=primary,
                                    budget=round(relaxed, 3))
                if self.metrics is not None:
                    self.metrics.counter("resilience.primary_retries").inc()
                retry_solution, retry_outcome = self._attempt(
                    problem, primary, relaxed, retry=True,
                    warm_start=warm_start, reuse_tolerance=reuse_tolerance)
                if retry_outcome == "ok":
                    self._consecutive_failures = 0
                    name = retry_solution.backend or primary
                    self._count(name)
                    return retry_solution, name, True
                if retry_outcome == "timeout":
                    solution, outcome = retry_solution, retry_outcome
            if outcome == "timeout":
                # Budget overrun (and the retry, if any, overran too):
                # keep the (possibly incumbent) answer but count one
                # failure toward the breaker and mark the round.
                self._record_failure()
                self._count(primary)
                return solution, primary, True
            self._record_failure()
        # Fallback tiers: each non-final tier runs under the round budget
        # (an overrun there still yields a usable rounding), the final tier
        # runs unbudgeted.  No reuse check on fallbacks — the primary
        # already priced it if asked.
        chain = [b for b in FALLBACKS if b != primary]
        for pos, backend in enumerate(chain):
            fallback_budget = float("inf") if pos == len(chain) - 1 \
                else budget
            solution, outcome = self._attempt(problem, backend,
                                              fallback_budget,
                                              warm_start=warm_start)
            if solution is not None and outcome in ("ok", "timeout"):
                name = solution.backend or backend
                self._count(name)
                return solution, name, True
        self._count("exhausted")
        raise SolverExhaustedError(
            f"all solver backends failed (primary={primary!r}, "
            f"chain={chain!r}); caller should carry forward the previous "
            "round")


def carry_forward_plan(previous: dict[str, Allocation], cluster: Cluster,
                       views: list[JobView]) -> RoundPlan:
    """Last-resort plan: keep the previous round's allocations that are
    still feasible on the (possibly shrunken) cluster.

    An allocation survives only if the job is still active and every node
    it touches exists, has the right GPU type, and is not over-subscribed
    once earlier survivors are counted.  The result always passes
    ``RoundPlan.validate``.
    """
    nodes = {n.node_id: n for n in cluster.nodes}
    active_ids = {v.job_id for v in views}
    used: dict[int, int] = {}
    allocations: dict[str, Allocation] = {}
    for job_id in sorted(previous):
        alloc = previous[job_id]
        if job_id not in active_ids or alloc is None:
            continue
        feasible = True
        for node_id, count in alloc.gpus_per_node:
            node = nodes.get(node_id)
            if node is None or node.gpu_type != alloc.gpu_type \
                    or used.get(node_id, 0) + count > node.num_gpus:
                feasible = False
                break
        if not feasible:
            continue
        for node_id, count in alloc.gpus_per_node:
            used[node_id] = used.get(node_id, 0) + count
        allocations[job_id] = alloc
    return RoundPlan(allocations=allocations, backend="carry", degraded=True)
