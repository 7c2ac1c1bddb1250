"""Statistical-efficiency model (gradient noise scale).

Sia borrows Pollux's statistical-efficiency model: training with total batch
size ``M`` makes progress per sample proportional to::

    E(M) = (phi + M0) / (phi + M)

where ``phi`` is the (pre-conditioned) gradient noise scale and ``M0`` the
job's reference batch size.  ``E(M0) == 1`` by construction; doubling the
batch far above the noise scale roughly halves per-sample progress, while
jobs with large ``phi`` scale batch size almost for free.

Goodput = throughput(samples/s) * E(M), measured in *effective* samples per
second (Section 2, footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EfficiencyParams:
    """Parameters of the statistical-efficiency model."""

    #: gradient noise scale; larger => large batches stay efficient.
    grad_noise_scale: float
    #: reference (initial) total batch size M0 at which efficiency == 1.
    init_batch_size: int

    def __post_init__(self) -> None:
        if self.grad_noise_scale <= 0:
            raise ValueError("grad_noise_scale must be positive")
        if self.init_batch_size < 1:
            raise ValueError("init_batch_size must be >= 1")


class EfficiencyModel:
    """Evaluates statistical efficiency for total batch sizes."""

    def __init__(self, params: EfficiencyParams):
        self.params = params

    def efficiency(self, total_batch_size: float) -> float:
        """Per-sample statistical efficiency at total batch size M.

        Always in ``(0, (phi+M0)/(phi+1)]``; equals 1 at ``M == M0``.
        """
        if total_batch_size <= 0:
            raise ValueError("total_batch_size must be positive")
        p = self.params
        return (p.grad_noise_scale + p.init_batch_size) / (
            p.grad_noise_scale + total_batch_size)

    def efficiency_batch(self, total_batch_sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`efficiency` over an array of total batch sizes."""
        totals = np.asarray(total_batch_sizes, dtype=float)
        if totals.size and totals.min() <= 0:
            raise ValueError("total_batch_size must be positive")
        p = self.params
        return (p.grad_noise_scale + p.init_batch_size) / (
            p.grad_noise_scale + totals)

    def update_noise_scale(self, observed: float, *, smoothing: float = 0.7) -> None:
        """Online refinement: exponentially smooth a new gradient-noise-scale
        measurement into the model (Adaptive Executors report these every
        30 s; Section 3.5)."""
        if observed <= 0:
            raise ValueError("observed noise scale must be positive")
        if not 0.0 <= smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        p = self.params
        p.grad_noise_scale = smoothing * p.grad_noise_scale + (1 - smoothing) * observed

