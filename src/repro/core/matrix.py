"""Normalized goodput matrix and utility shaping (Section 3.4).

Pipeline, per scheduling round:

1. raw goodput matrix ``G`` — one row per job, one column per configuration,
   filled row by row from each job's Goodput Estimator (nan, or a
   non-positive goodput, where infeasible);
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


def normalize_rows(matrix: np.ndarray, min_gpus: list[int]) -> np.ndarray:
    """Row-min normalization: ``G_ij <- N_i_min * G_ij / min_j G_ij``.

    ``matrix`` is the raw goodput matrix.  Entries that are nan,
    non-positive or non-finite are infeasible and come out as nan; rows
    without a feasible entry stay all-nan.
    """
    if matrix.shape[0] != len(min_gpus):
        raise ValueError("min_gpus length must match the number of rows")
    matrix = np.where((matrix > 0) & np.isfinite(matrix), matrix, math.nan)
    if matrix.size == 0:
        return matrix
    # Row minima over feasible entries only; empty rows stay untouched.
    lifted = np.where(np.isnan(matrix), np.inf, matrix)
    row_min = lifted.min(axis=1)
    has_feasible = np.isfinite(row_min)
    scale_num = np.asarray(min_gpus, dtype=float)[:, None]
    divisor = np.where(has_feasible, row_min, 1.0)[:, None]
    # Same elementwise op order as the scalar loop: (min_gpus * G) / row_min.
    out = np.where(has_feasible[:, None],
                   scale_num * matrix / divisor, matrix)
    return out


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


def apply_restart_discount(matrix: np.ndarray,
                           current_idx: list[int | None],
                           factors: list[float]) -> np.ndarray:
    """Discount entries that would restart the job (config != current)."""
    n_rows = matrix.shape[0]
    if len(current_idx) != n_rows or len(factors) != n_rows:
        raise ValueError("per-job inputs must match the number of rows")
    out = matrix.copy()
    if out.size == 0:
        return out
    # Queued jobs (current is None) start fresh; no restart is involved.
    running = np.fromiter((c is not None for c in current_idx),
                          dtype=bool, count=n_rows)
    current = np.fromiter((c if c is not None else -1
                           for c in current_idx),
                          dtype=np.int64, count=n_rows)
    cols = np.arange(out.shape[1])
    mask = running[:, None] & (cols[None, :] != current[:, None])
    factor_col = np.asarray(factors, dtype=float)[:, None]
    out = np.where(mask, out * factor_col, out)
    return out


def apply_health_discount(matrix: np.ndarray, config_types: list[str],
                          discounts: dict[str, float]) -> np.ndarray:
    """Discount goodputs on GPU types with probation nodes (gray defense).

    ``discounts`` maps gpu_type -> factor in (0, 1] from
    :meth:`repro.core.health.HealthTracker.type_discounts`; absent types
    keep 1.0.  Applied to the *goodput-domain* matrix before
    :func:`shape_utilities`: shaving ``G`` by ``d < 1`` reduces a column's
    attractiveness under both signs of the fairness power, whereas scaling
    shaped utilities would invert the incentive for ``p < 0`` (where
    utility is ``lambda - G^p`` and can be negative).  Returns ``matrix``
    unchanged (same object) when no discount applies.
    """
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


def shape_utilities(matrix: np.ndarray, *, p: float,
                    allocation_incentive: float) -> np.ndarray:
    """Fairness power + allocation incentive -> final ILP utilities.

    For ``p > 0`` the utility of a pair is ``lambda + G^p`` (maximize).  For
    ``p < 0`` the paper minimizes ``sum G^p``; we negate so the ILP keeps
    maximizing: utility ``lambda - G^p``.  ``p == 0`` degenerates to "every
    feasible configuration is equally good" (utility ``lambda + 1``).
    """
    if allocation_incentive < 0:
        raise ValueError("allocation incentive must be non-negative")
    out = np.full_like(matrix, math.nan)
    feasible = ~np.isnan(matrix)
    values = matrix[feasible]
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
    shaped = np.where(np.isfinite(shaped), shaped, math.nan)
    out[feasible] = shaped
    return out

