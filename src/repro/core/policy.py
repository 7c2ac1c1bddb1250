"""Tunables of the Sia scheduling policy (Section 4.3).

The round itself — goodput matrix, ILP and placement — is
:meth:`repro.schedulers.sia.SiaScheduler.decide`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ilp import BACKENDS


@dataclass
class SiaPolicyParams:
    """Tunables with the paper's defaults (Section 4.3)."""

    #: fairness power p (Section 5.7; default -0.5).
    p: float = -0.5
    #: allocation incentive lambda (Section 4.3; default 1.1).
    allocation_incentive: float = 1.1
    #: ILP backend — any of :data:`repro.core.ilp.BACKENDS` ('milp',
    #: 'tiered', 'greedy'; 'tiered' is the former name of 'milp' and
    #: solves the same way); the primary rung of the fallback ladder
    #: ``solver -> greedy`` (:func:`repro.core.ilp.solve_with_fallback`).
    #: Any other name is rejected here.
    solver: str = "milp"
    #: wall-clock seconds the primary rung may spend per round, passed to
    #: HiGHS as its time limit; a HiGHS solve that reaches it hands the
    #: round to greedy.  None passes no limit.
    solve_budget_s: float | None = None
    #: disable the restart factor (ablation).
    use_restart_factor: bool = True

    def __post_init__(self) -> None:
        if self.solve_budget_s is not None and self.solve_budget_s <= 0:
            raise ValueError("solve_budget_s must be positive")
        if self.solver not in BACKENDS:
            raise ValueError(f"unknown solver {self.solver!r}; "
                             f"choose from {BACKENDS}")
