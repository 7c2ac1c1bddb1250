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
    #: solves the same way).  Any other name is rejected here; a failed
    #: solve raises out of ``decide``.
    solver: str = "milp"
    #: disable the restart factor (ablation).
    use_restart_factor: bool = True

    def __post_init__(self) -> None:
        if self.solver not in BACKENDS:
            raise ValueError(f"unknown solver {self.solver!r}; "
                             f"choose from {BACKENDS}")
