"""Hybrid-parallel (pipeline-model-parallel x data-parallel) jobs.

Section 5.3 simulates fine-tuning a 2.8B GPT model: a pipeline-parallel
strategy partitions the model over ``P`` GPUs (``P`` depends on the GPU
type's memory — 2 stages on a100, 8 on rtx), and data parallelism replicates
that pipeline to scale out.  A job with ``N`` replicas uses exactly
``N * P`` GPUs; each replica runs ``num_microbatches`` micro-batches of size
``micro_batch_size`` per iteration (GPipe schedule), then all replicas
synchronize with a gradient all-reduce.

The performance model has two parts:

* **pipeline compute** — per micro-batch each stage costs
  ``T_model(m) / P`` (the whole-model per-micro-batch cost split across
  stages); the GPipe schedule fills and drains the pipeline, so one replica
  iteration costs ``(num_micro + P - 1) * stage_time``;
* **data-parallel sync** — a gradient all-reduce across ``N`` replicas; per
  GPU the payload is the stage's ``1/P`` gradient shard, so we reuse the
  model's inter-node sync parameters scaled by ``1/P``.

These jobs are profiled *up front* (the paper seeds the simulator with
measured micro-batch compute and all-reduce times), so the scheduler's
estimator for hybrid jobs is exact rather than bootstrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.types import Configuration
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel
from repro.perf.throughput import ThroughputModel


@dataclass(frozen=True)
class HybridSpec:
    """Shape of one hybrid-parallel job."""

    #: GPUs per data-parallel replica, per GPU type the planner produced a
    #: partitioning for (Section 5.3: {'a100': 2, 'rtx': 8}).
    stages_per_type: dict[str, int] = field(
        default_factory=lambda: {"a100": 2, "rtx": 8})
    micro_batch_size: int = 1
    num_microbatches: int = 48

    def __post_init__(self) -> None:
        if not self.stages_per_type:
            raise ValueError("hybrid spec needs at least one GPU type")
        if any(p < 1 for p in self.stages_per_type.values()):
            raise ValueError("stage counts must be >= 1")
        if self.micro_batch_size < 1 or self.num_microbatches < 1:
            raise ValueError("invalid micro-batch plan")

    @property
    def replica_batch_size(self) -> int:
        """Samples one replica processes per iteration."""
        return self.micro_batch_size * self.num_microbatches

    def stages(self, gpu_type: str) -> int | None:
        return self.stages_per_type.get(gpu_type)

    def num_replicas(self, config: Configuration) -> int | None:
        """Data-parallel replica count for a configuration, or None if the
        configuration cannot host an integral number of replicas."""
        stages = self.stages(config.gpu_type)
        if stages is None or config.num_gpus % stages != 0:
            return None
        return config.num_gpus // stages


class HybridPerfModel:
    """Ground-truth (== scheduler-visible) performance model for one
    hybrid-parallel job."""

    def __init__(self, model_name: str, spec: HybridSpec):
        self.model_name = model_name
        self.spec = spec

    def iter_time(self, gpu_type: str, num_replicas: int,
                  num_nodes: int) -> float:
        """Seconds per training iteration for N replicas on one GPU type."""
        stages = self.spec.stages(gpu_type)
        if stages is None:
            raise ValueError(f"no pipeline partitioning for {gpu_type!r}")
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        params = profiles.true_throughput_params(self.model_name, gpu_type)
        micro_cost = params.alpha_c + params.beta_c * self.spec.micro_batch_size
        stage_time = micro_cost / stages
        pipeline = (self.spec.num_microbatches + stages - 1) * stage_time
        if num_replicas == 1:
            return pipeline
        # DP all-reduce: each stage's 1/P gradient shard is ring-reduced
        # across the N replicas (participants = N, payload = 1/P), so the
        # cost shrinks with the stage count and grows only mildly with N —
        # which is why compute dominates and scaling stays near-linear
        # (Section 5.3's left plot).
        model = ThroughputModel(params)
        sync = model.sync_time(max(2, num_nodes), num_replicas) / stages
        return pipeline + sync

    def throughput(self, gpu_type: str, num_replicas: int,
                   num_nodes: int) -> float:
        """Samples per second (all replicas combined)."""
        batch = self.spec.replica_batch_size * num_replicas
        return batch / self.iter_time(gpu_type, num_replicas, num_nodes)


class HybridPerfEstimator:
    """Goodput estimator for hybrid-parallel jobs.

    Implements the same protocol as
    :class:`~repro.perf.estimator.JobPerfEstimator` (``goodput``,
    ``add_observation``, ``update_gradient_stats``, ``profile_initial``) so
    the Sia policy treats hybrid jobs uniformly (Section 3.4: "Sia only
    requires that a job provide a goodput estimator").
    """

    def __init__(self, model_name: str, spec: HybridSpec):
        self.model_name = model_name
        self.spec = spec
        self.perf = HybridPerfModel(model_name, spec)
        self._efficiency = EfficiencyModel(
            profiles.true_efficiency_params(model_name))
        self.profiling_gpu_seconds = 0.0

    def profile_initial(self) -> float:
        """Hybrid jobs arrive pre-profiled (Section 5.3); the cost of the
        planner's profiling pass is charged as one pipeline warm-up
        iteration per profiled GPU type."""
        spent = 0.0
        for gpu_type, stages in self.spec.stages_per_type.items():
            spent += self.perf.iter_time(gpu_type, 1, 1) * stages
        self.profiling_gpu_seconds += spent
        return spent

    def add_observation(self, obs) -> None:  # noqa: ANN001 - protocol no-op
        """Hybrid models are exact; online observations are ignored."""

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        self._efficiency.update_noise_scale(observed_noise_scale)

    def goodput(self, config: Configuration, memo=None) -> float:
        """Goodput of a configuration, closed-form (``memo`` is unused:
        there is no batch plan to memoize)."""
        replicas = self.spec.num_replicas(config)
        if replicas is None:
            return 0.0
        total_bsz = self.spec.replica_batch_size * replicas
        profile = profiles.model_profile(self.model_name)
        if total_bsz > max(profile.max_bsz, self.spec.replica_batch_size):
            # Scaling out adds one replica batch per replica; the submitter's
            # max_bsz bounds how far data parallelism may go.
            return 0.0
        xput = self.perf.throughput(config.gpu_type, replicas,
                                    config.num_nodes)
        return xput * self._efficiency.efficiency(total_bsz)

    def goodput_batch(self, configs: list[Configuration]):
        """Batched :meth:`goodput`.  The hybrid model is closed-form and
        cheap, so this is a convenience loop that keeps the policy's batched
        row-fill path uniform across estimator kinds."""
        out = np.empty(len(configs))
        for i, config in enumerate(configs):
            out[i] = self.goodput(config)
        return out

    def best_plan(self, config: Configuration, memo=None):
        """Hybrid jobs have a fixed micro-batch plan; return None to signal
        there is no batch-size decision to make."""
        return None

    @property
    def efficiency_model(self) -> EfficiencyModel:
        return self._efficiency
