"""Simulated Adaptive Executors: ground-truth execution of one round.

The executor layer answers: given a job, its allocation, and the batch plan
its (possibly wrong) estimator chose, how fast does it *actually* run?  The
scheduler plans on beliefs; outcomes come from the ground-truth catalog —
that split is what makes the profiling-mode experiments (Section 5.7)
meaningful.

Noise models (both optional, seeded):

* ``rate_noise``  — a per-(job, GPU type) fixed multiplicative bias on true
  performance, emulating hardware variability on the physical testbed
  (Section 5.1 attributes Pollux's real-vs-simulated gap partly to this).
* ``obs_noise``   — per-measurement multiplicative jitter on the iteration
  times reported back to the estimator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.types import Allocation
from repro.jobs.hybrid import HybridPerfModel
from repro.jobs.job import Job
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel
from repro.perf.fitting import Observation
from repro.perf.goodput import BatchPlan
from repro.perf.throughput import ThroughputModel


@dataclass(frozen=True)
class RoundExecution:
    """Realized behaviour of one job for one round."""

    goodput: float        # effective samples per second (true)
    throughput: float     # samples per second (true)
    iter_time: float      # seconds per iteration (true, observable)
    local_bsz: int
    accum_steps: int
    total_batch_size: int


#: Entries of each per-process memo of an executor's pure functions
#: (:func:`_true_execution`, :data:`_noiseless_observation`).  A seed-1
#: pass of any benchmark workload needs under 100 of each.  The memos
#: key on argument types too, so an ``np.int64`` batch size or an
#: ``np.float64`` time is answered with its own type, as a fresh call
#: would be.
MEMO_MAX = 4096


@functools.lru_cache(maxsize=MEMO_MAX, typed=True)
def _true_execution(model_name: str, gpu_type: str, num_gpus: int,
                    num_nodes: int, local_bsz: int, accum_steps: int,
                    bias: float) -> RoundExecution | None:
    """The true rates of a non-hybrid plan: a pure function of its inputs
    and the catalog, so one process-level memo serves every job, round
    and executor, and no executor pickles a model.  None when the plan's
    per-GPU batch is over the type's memory cap."""
    if local_bsz > profiles.max_local_bsz(model_name, gpu_type):
        return None  # would OOM on real hardware
    true_model = ThroughputModel(profiles.true_throughput_params(model_name,
                                                                 gpu_type))
    iter_time = true_model.iter_time(local_bsz, num_gpus, num_nodes,
                                     accum_steps) / bias
    total = num_gpus * local_bsz * accum_steps
    throughput = total / iter_time
    efficiency = EfficiencyModel(profiles.true_efficiency_params(
        model_name)).efficiency(total)
    return RoundExecution(goodput=throughput * efficiency,
                          throughput=throughput, iter_time=iter_time,
                          local_bsz=local_bsz, accum_steps=accum_steps,
                          total_batch_size=total)


#: The report of a round with no jitter, memoized like
#: :func:`_true_execution` (an :class:`Observation` is immutable).
_noiseless_observation = functools.lru_cache(maxsize=MEMO_MAX,
                                             typed=True)(Observation)


class ExecutionModel:
    """Computes ground-truth execution rates, with optional noise."""

    #: observability tracer carried on the simulation context (injected by
    #: the Simulator); each ``execute`` call records an ``execute`` span.
    tracer: Tracer = NULL_TRACER

    def __init__(self, seed: int = 0, rate_noise: float = 0.0,
                 obs_noise: float = 0.0):
        if rate_noise < 0 or obs_noise < 0:
            raise ValueError("noise levels must be non-negative")
        self.rate_noise = rate_noise
        self.obs_noise = obs_noise
        self._rng = np.random.default_rng(seed)
        self._bias: dict[tuple[str, str], float] = {}

    def _hardware_bias(self, job_id: str, gpu_type: str) -> float:
        """Fixed per-(job, GPU type) speed factor (1.0 when noiseless)."""
        if self.rate_noise == 0.0:
            return 1.0
        key = (job_id, gpu_type)
        if key not in self._bias:
            self._bias[key] = float(math.exp(
                self._rng.normal(0.0, self.rate_noise)))
        return self._bias[key]

    def execute(self, job: Job, allocation: Allocation,
                plan: BatchPlan | None,
                speed: float = 1.0) -> RoundExecution | None:
        """True rates for a job running one round on ``allocation``.

        ``plan`` is the executor's batch decision (from the job's estimator);
        hybrid jobs have a fixed plan and pass None.  ``speed`` is an extra
        ground-truth rate multiplier in (0, 1] — e.g. a straggling node
        slowing the whole synchronous job — felt in both progress and the
        iteration times reported back to the estimator.  Returns None if the
        plan cannot run at all (defensive; the estimator's memory knowledge
        should prevent this).
        """
        if not 0 < speed <= 1:
            raise ValueError("speed must be in (0, 1]")
        with self.tracer.span("execute", job=job.job_id,
                              gpu_type=allocation.gpu_type,
                              num_gpus=allocation.num_gpus):
            config = allocation.configuration()
            bias = self._hardware_bias(job.job_id,
                                       allocation.gpu_type) * speed
            if job.is_hybrid:
                return self._execute_hybrid(job, allocation, bias)
            if plan is None:
                return None
            return _true_execution(job.model_name, allocation.gpu_type,
                                   config.num_gpus, config.num_nodes,
                                   plan.local_bsz, plan.accum_steps, bias)

    def _execute_hybrid(self, job: Job, allocation: Allocation,
                        bias: float) -> RoundExecution | None:
        assert job.hybrid is not None
        config = allocation.configuration()
        replicas = job.hybrid.num_replicas(config)
        if replicas is None:
            return None
        perf = HybridPerfModel(job.model_name, job.hybrid)
        iter_time = perf.iter_time(allocation.gpu_type, replicas,
                                   config.num_nodes) / bias
        total = job.hybrid.replica_batch_size * replicas
        throughput = total / iter_time
        efficiency = EfficiencyModel(profiles.true_efficiency_params(
            job.model_name)).efficiency(total)
        return RoundExecution(goodput=throughput * efficiency,
                              throughput=throughput, iter_time=iter_time,
                              local_bsz=job.hybrid.micro_batch_size,
                              accum_steps=job.hybrid.num_microbatches,
                              total_batch_size=total)

    def observe(self, job: Job, allocation: Allocation,
                execution: RoundExecution) -> Observation:
        """The measurement the Adaptive Executor reports for this round."""
        jitter, build = 1.0, _noiseless_observation
        if self.obs_noise > 0.0:
            jitter = float(math.exp(self._rng.normal(0.0, self.obs_noise)))
            build = Observation
        config = allocation.configuration()
        return build(allocation.gpu_type, config.num_nodes, config.num_gpus,
                     execution.local_bsz, execution.accum_steps,
                     execution.iter_time * jitter)

    def observed_noise_scale(self, job: Job) -> float:
        """Gradient-noise-scale measurement reported alongside throughput."""
        true_phi = profiles.true_efficiency_params(job.model_name).grad_noise_scale
        if self.obs_noise == 0.0:
            return true_phi
        return true_phi * float(math.exp(
            self._rng.normal(0.0, self.obs_noise)))
