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

from dataclasses import dataclass, replace

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

    def scaled(self, factor: float) -> "ThroughputParams":
        """Uniformly scale all time components (e.g. to perturb ground truth)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            alpha_c=self.alpha_c * factor, beta_c=self.beta_c * factor,
            alpha_r=self.alpha_r * factor, beta_r=self.beta_r * factor,
            alpha_n=self.alpha_n * factor, beta_n=self.beta_n * factor,
        )


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

    # -- vectorized entry points ------------------------------------------

    def sync_time_batch(self, num_nodes: np.ndarray,
                        num_gpus: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sync_time` over arrays of allocation shapes."""
        gpus = np.asarray(num_gpus)
        nodes = np.asarray(num_nodes)
        if np.any((nodes < 1) | (nodes > gpus)):
            raise ValueError("invalid allocation shape")
        p = self.params
        extra = np.maximum(gpus - 2, 0)
        multi = np.where(nodes == 1, p.alpha_r + p.beta_r * extra,
                         p.alpha_n + p.beta_n * extra)
        return np.where(gpus == 1, 0.0, multi)

    def iter_time_batch(self, local_bsz: np.ndarray,
                        num_gpus: np.ndarray | int,
                        num_nodes: np.ndarray | int,
                        accum_steps: np.ndarray | int = 1) -> np.ndarray:
        """Vectorized :meth:`iter_time`.

        Every argument may be an array: per-GPU batch size, accumulation
        steps *and* the allocation shape ``(num_gpus, num_nodes)`` vary
        elementwise, so one call evaluates the concatenated candidate grids
        of many configurations.  A scalar shape keeps the scalar sync time.
        """
        local = np.asarray(local_bsz, dtype=float)
        accum = np.asarray(accum_steps, dtype=float)
        if local.size and local.min() <= 0:
            raise ValueError("local_bsz must be positive")
        if accum.size and accum.min() < 1:
            raise ValueError("accum_steps must be >= 1")
        p = self.params
        t_grad = p.alpha_c + p.beta_c * local
        if not isinstance(num_gpus, np.ndarray) \
                and not isinstance(num_nodes, np.ndarray):
            t_sync = self.sync_time(num_nodes, num_gpus)
        else:
            t_sync = self.sync_time_batch(num_nodes, num_gpus)
        g = p.gamma
        overlapped = (t_grad ** g + t_sync ** g) ** (1.0 / g)
        return (accum - 1) * t_grad + overlapped

    def throughput_batch(self, local_bsz: np.ndarray,
                         num_gpus: np.ndarray | int,
                         num_nodes: np.ndarray | int,
                         accum_steps: np.ndarray | int = 1) -> np.ndarray:
        """Vectorized :meth:`throughput`; arguments as :meth:`iter_time_batch`."""
        local = np.asarray(local_bsz, dtype=float)
        accum = np.asarray(accum_steps, dtype=float)
        total = num_gpus * local * accum
        return total / self.iter_time_batch(local, num_gpus, num_nodes, accum)

