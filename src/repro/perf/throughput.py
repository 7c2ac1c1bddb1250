"""Per-(job, GPU type) throughput model.

The paper reuses Pollux's throughput model family (Section 3.2): iteration
time decomposes into a gradient-computation phase that grows linearly with
per-GPU batch size, and a synchronization (all-reduce) phase that depends on
GPU count and whether the allocation crosses node boundaries.  The two
phases partially overlap, modeled with a gamma-norm::

    T_grad(m)       = alpha_c + beta_c * m
    T_sync(n, k)    = 0                                if k == 1
                    = alpha_r + beta_r * max(0, k - 2) if n == 1
                    = alpha_n + beta_n * max(0, k - 2) if n > 1
    T_iter(m,k,n,s) = (s - 1) * T_grad + (T_grad^g + T_sync^g)^(1/g)

where ``m`` is the local (per-GPU) batch size, ``k`` the GPU count, ``n`` the
node count, ``s >= 1`` the gradient-accumulation steps per iteration and
``g`` the overlap exponent GAMMA.  Throughput is ``k * m * s / T_iter``
samples per second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Overlap exponent; larger means less compute/communication overlap.
GAMMA: float = 1.6


@dataclass(frozen=True)
class ThroughputParams:
    """Fitted (or ground-truth) parameters of the throughput model."""

    alpha_c: float  # fixed per-step compute overhead (s)
    beta_c: float   # compute seconds per local sample
    alpha_r: float  # intra-node sync base cost (s)
    beta_r: float   # intra-node sync per extra GPU (s)
    alpha_n: float  # inter-node sync base cost (s)
    beta_n: float   # inter-node sync per extra GPU (s)
    gamma: float = GAMMA

    def __post_init__(self) -> None:
        if min(self.alpha_c, self.beta_c, self.alpha_r, self.beta_r,
               self.alpha_n, self.beta_n) < 0:
            raise ValueError("throughput parameters must be non-negative")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")


class ThroughputModel:
    """Evaluates iteration time and throughput from :class:`ThroughputParams`."""

    def __init__(self, params: ThroughputParams):
        self.params = params

    def grad_time(self, local_bsz: float) -> float:
        """Seconds for one gradient-computation step at local batch size m."""
        if local_bsz <= 0:
            raise ValueError("local_bsz must be positive")
        p = self.params
        return p.alpha_c + p.beta_c * local_bsz

    def sync_time(self, num_nodes: int, num_gpus: int) -> float:
        """Seconds for gradient synchronization across the allocation."""
        if num_gpus < 1 or num_nodes < 1 or num_nodes > num_gpus:
            raise ValueError("invalid allocation shape")
        if num_gpus == 1:
            return 0.0
        p = self.params
        extra = max(0, num_gpus - 2)
        if num_nodes == 1:
            return p.alpha_r + p.beta_r * extra
        return p.alpha_n + p.beta_n * extra

    def iter_time(self, local_bsz: float, num_gpus: int, num_nodes: int,
                  accum_steps: int = 1) -> float:
        """Seconds per training iteration (one optimizer step)."""
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        t_grad = self.grad_time(local_bsz)
        t_sync = self.sync_time(num_nodes, num_gpus)
        g = self.params.gamma
        overlapped = (t_grad ** g + t_sync ** g) ** (1.0 / g)
        return (accum_steps - 1) * t_grad + overlapped

    def throughput(self, local_bsz: float, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        """Samples processed per second for the given execution plan."""
        total = num_gpus * local_bsz * accum_steps
        return total / self.iter_time(local_bsz, num_gpus, num_nodes, accum_steps)

    def throughput_batch(self, local_bsz: np.ndarray, num_gpus: int,
                         num_nodes: int,
                         accum_steps: np.ndarray | int = 1) -> np.ndarray:
        """Vectorized :meth:`throughput` over batch plans of one allocation
        shape: :func:`throughput_rows` with this model's parameters."""
        p = self.params
        return throughput_rows(local_bsz, accum_steps, num_gpus, p.alpha_c,
                               p.beta_c, p.gamma,
                               self.sync_time(num_nodes, num_gpus))


def throughput_rows(local_bsz: np.ndarray, accum_steps: np.ndarray | int,
                    num_gpus: np.ndarray | int, alpha_c: np.ndarray | float,
                    beta_c: np.ndarray | float, gamma: np.ndarray | float,
                    sync: np.ndarray | float) -> np.ndarray:
    """Throughput of candidate rows, each with its own model parameters.

    Row ``i`` is the plan ``(local_bsz[i], accum_steps[i])`` on
    ``num_gpus[i]`` GPUs under compute parameters ``alpha_c[i]``,
    ``beta_c[i]``, overlap exponent ``gamma[i]`` and sync time ``sync[i]``
    (:meth:`ThroughputModel.sync_time` of the row's shape).  Any argument
    may be a scalar shared by every row.  This is the only vectorized form
    of the iteration-time formula: one call rates the candidate grids of
    many jobs, GPU types and shapes at once, and agrees with the scalar
    :meth:`ThroughputModel.throughput` up to the last bit of ``pow``.
    """
    local = np.asarray(local_bsz, dtype=float)
    accum = np.asarray(accum_steps, dtype=float)
    t_grad = alpha_c + beta_c * local
    overlapped = (t_grad ** gamma + sync ** gamma) ** (1.0 / gamma)
    return num_gpus * local * accum / ((accum - 1) * t_grad + overlapped)
