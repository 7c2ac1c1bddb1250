"""Inference workloads (Section 3.4, "Scheduling other workload types").

The paper argues Sia generalizes beyond DL training: it only requires a
goodput estimator per job.  Two estimator families are sketched there and
implemented here:

* **Batch inference** — run inference over a large dataset; throughput *is*
  goodput (no statistical-efficiency component).  These jobs flow through
  the simulator end-to-end: progress accrues at the realized throughput.
* **Latency-sensitive inference** — pick resources that can serve requests
  within a latency SLO: goodput is 1 for configurations meeting the SLO
  and 0 otherwise, so the ILP places the job on the cheapest feasible
  bundle (every feasible configuration has equal utility; the allocation
  incentive does the rest).
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import ConstantEfficiency
from repro.perf.estimator import JobConstraints, JobPerfEstimator


class BatchInferenceEstimator(JobPerfEstimator):
    """Goodput estimator for batch (offline) inference jobs.

    Reuses the full training estimator machinery — per-GPU-type throughput
    models, initial profiling, Equation (1) bootstrapping — but replaces the
    statistical-efficiency model with unit efficiency, so goodput equals
    samples scored per second.
    """

    def __init__(self, model_name: str, constraints: JobConstraints,
                 gpu_types: tuple[str, ...],
                 mode: ProfilingMode = ProfilingMode.BOOTSTRAP):
        super().__init__(model_name, constraints, gpu_types, mode)
        self._efficiency = ConstantEfficiency()

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        """Inference reports no gradient statistics."""


class LatencySLOEstimator:
    """Goodput estimator for latency-sensitive inference (Section 3.4).

    ``goodput(config)`` is 1.0 when a single-sample forward pass on that
    configuration meets the promised latency, else 0.0.  Uses the true
    per-type compute model (serving deployments are profiled before being
    admitted), and only single-node configurations qualify: a
    latency-bound replica cannot span nodes.
    """

    def __init__(self, model_name: str, latency_slo_s: float,
                 gpu_types: tuple[str, ...]):
        if latency_slo_s <= 0:
            raise ValueError("latency SLO must be positive")
        profiles.model_profile(model_name)  # validate
        self.model_name = model_name
        self.latency_slo_s = latency_slo_s
        self.gpu_types = gpu_types
        self.profiling_gpu_seconds = 0.0

    def request_latency(self, gpu_type: str) -> float:
        """Single-sample forward latency on one GPU of a type.

        Inference runs the forward pass only, roughly a third of a training
        step's compute.
        """
        params = profiles.true_throughput_params(self.model_name, gpu_type)
        return (params.alpha_c + params.beta_c) / 3.0

    def meets_slo(self, gpu_type: str) -> bool:
        if profiles.max_local_bsz(self.model_name, gpu_type) < 1:
            return False
        return self.request_latency(gpu_type) <= self.latency_slo_s

    def profile_initial(self) -> float:
        """Charge one warm-up request per GPU type."""
        spent = sum(self.request_latency(t) for t in self.gpu_types
                    if profiles.max_local_bsz(self.model_name, t) >= 1)
        self.profiling_gpu_seconds += spent
        return spent

    def add_observation(self, obs) -> None:  # noqa: ANN001 - protocol no-op
        """Latency model is profiled up front; online data is ignored."""

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        """No gradient statistics for inference."""

    def goodput(self, config: Configuration, memo=None) -> float:
        """1 where the SLO holds on one node, else 0 (``memo`` is unused:
        there is no batch plan to memoize)."""
        if config.num_nodes != 1:
            return 0.0
        return 1.0 if self.meets_slo(config.gpu_type) else 0.0

    def goodput_batch(self, configs: list[Configuration]) -> np.ndarray:
        """Batched :meth:`goodput`: the SLO check is per GPU type, so one
        pass over the (few) types covers any number of configurations."""
        slo_ok = {t: self.meets_slo(t)
                  for t in {c.gpu_type for c in configs}}
        return np.fromiter(
            (1.0 if c.num_nodes == 1 and slo_ok[c.gpu_type] else 0.0
             for c in configs), dtype=float, count=len(configs))

    def best_plan(self, config: Configuration, memo=None):
        """Latency serving has no batch-size decision."""
        return None


def serving_throughput(model_name: str, gpu_type: str,
                       num_gpus: int) -> float:
    """Requests/second a latency-serving allocation can sustain (each GPU
    serves independently at its single-sample forward latency)."""
    if num_gpus < 1:
        return 0.0
    probe = LatencySLOEstimator(model_name, 1.0, (gpu_type,))
    return num_gpus / probe.request_latency(gpu_type)
