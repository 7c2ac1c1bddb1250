"""Normalized goodput and utility shaping (Section 3.4), on compact rows.

Each step runs on one flat vector of every job's feasible entries, entry
``k`` in row ``rows[k]`` and column ``cols[k]`` of the dense (jobs x
configurations) matrix the ILP reads, in the dense pipeline's float-op
order; the caller scatters the result into that matrix, nan elsewhere.

1. raw goodput ``G`` — each job's row from its Goodput Estimator (nan, or
   a non-positive goodput, where infeasible);
2. row normalization — ``G_ij <- N_i_min * G_ij / min_j G_ij`` makes rows
   comparable across jobs (the row minimum becomes the job's minimum GPU
   count, so every feasible entry is a unitless multiple of the job's worst
   option);
3. restart factor (Equation 3) — entries whose configuration differs from
   the job's current one are discounted by the job's historical useful-time
   fraction;
4. fairness power ``p`` — entries are raised to ``p``; for ``p < 0`` the
   objective flips to minimization, which we encode by negating utilities so
   the ILP always maximizes.

The allocation incentive ``lambda`` is folded into each pair's utility (an
allocated job always gains ``lambda`` over staying queued).
"""

from __future__ import annotations

import math

import numpy as np


def normalize_rows(values: np.ndarray, rows: np.ndarray,
                   min_gpus: list[int]) -> np.ndarray:
    """Row-min normalization: ``G_ij <- N_i_min * G_ij / min_j G_ij``.

    ``values`` holds raw goodputs, entry ``k`` in row ``rows[k]``.  Entries
    that are nan, non-positive or non-finite are infeasible and come out
    as nan; a row without a feasible entry stays all-nan.
    """
    if rows.size and rows.max() >= len(min_gpus):
        raise ValueError("min_gpus must cover every row")
    values = np.where((values > 0) & np.isfinite(values), values, math.nan)
    # Row minima over feasible entries only; empty rows keep inf.
    row_min = np.full(len(min_gpus), math.inf)
    np.minimum.at(row_min, rows, np.where(np.isnan(values), np.inf, values))
    divisor = np.where(np.isfinite(row_min), row_min, 1.0)
    # The dense op order: (min_gpus * G) / row_min.
    return np.asarray(min_gpus, dtype=float)[rows] * values / divisor[rows]


def restart_factor(age: float, num_restarts: int, restart_cost: float) -> float:
    """Equation (3): the job's projected useful-time fraction after one more
    restart, clamped to [0, 1].

    ``age`` is seconds since the job first started running, ``num_restarts``
    how many times it restarted before, ``restart_cost`` the GPU-seconds one
    checkpoint-restore wastes.  Young jobs and restart-heavy jobs get small
    factors, making configuration changes unattractive for them.
    """
    if age < 0 or num_restarts < 0 or restart_cost < 0:
        raise ValueError("restart-factor inputs must be non-negative")
    if age == 0 and restart_cost == 0:
        return 1.0
    useful = max(0.0, age - num_restarts * restart_cost)
    factor = useful / (age + restart_cost)
    return min(1.0, max(0.0, factor))


def apply_restart_discount(values: np.ndarray, rows: np.ndarray,
                           cols: np.ndarray, current_idx: list[int | None],
                           factors: list[float]) -> np.ndarray:
    """Discount entries that would restart the job (column != the row's
    current column); rows whose job is queued (``None``) start fresh."""
    if len(current_idx) != len(factors) or (
            rows.size and rows.max() >= len(factors)):
        raise ValueError("per-job inputs must cover every row")
    current = np.array([-1 if c is None else c for c in current_idx],
                       dtype=np.int64)[rows]
    mask = (current >= 0) & (cols != current)
    return np.where(mask, values * np.asarray(factors, dtype=float)[rows],
                    values)


def apply_health_discount(values: np.ndarray, cols: np.ndarray,
                          config_types: list[str],
                          discounts: dict[str, float]) -> np.ndarray:
    """Discount goodputs on GPU types with probation nodes (gray defense).

    ``discounts`` maps gpu_type -> factor in (0, 1] from
    :meth:`repro.core.health.HealthTracker.type_discounts`; absent types
    keep 1.0.  It shaves *goodput* before :func:`shape_utilities`, which
    makes a column less attractive under both signs of ``p``; scaling
    shaped utilities (``lambda - G^p`` for ``p < 0``) would invert that.
    Returns ``values`` itself when no discount applies.
    """
    if cols.size and cols.max() >= len(config_types):
        raise ValueError("config_types must cover every column")
    if not discounts:
        return values
    for gpu_type, factor in discounts.items():
        if not 0 < factor <= 1:
            raise ValueError(f"discount for {gpu_type!r} must be in (0, 1], "
                             f"got {factor}")
    column = np.array([discounts.get(t, 1.0) for t in config_types])
    if values.size == 0 or np.all(column == 1.0):
        return values
    return values * column[cols]


def shape_utilities(values: np.ndarray, *, p: float,
                    allocation_incentive: float) -> np.ndarray:
    """Fairness power + allocation incentive -> ILP utilities, elementwise.

    For ``p > 0`` the utility of a pair is ``lambda + G^p`` (maximize).  For
    ``p < 0`` the paper minimizes ``sum G^p``; we negate so the ILP keeps
    maximizing: utility ``lambda - G^p``.  ``p == 0`` degenerates to "every
    feasible configuration is equally good" (utility ``lambda + 1``).
    """
    if allocation_incentive < 0:
        raise ValueError("allocation incentive must be non-negative")
    # A zero restart factor can zero out entries; drop them before powering
    # (a restart with no projected useful time is never worth taking, and
    # 0^p explodes for p < 0).
    values = np.where(values > 0, values, math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p > 0:
            shaped = allocation_incentive + np.power(values, p)
        elif p < 0:
            shaped = allocation_incentive - np.power(values, p)
        else:
            shaped = np.where(np.isnan(values), math.nan,
                              allocation_incentive + 1.0)
    return np.where(np.isfinite(shaped), shaped, math.nan)

