"""Job abstraction.

A job is a DL training task submitted to the cluster with declared limits
(``max_bsz``, ``max_ngpus`` — Section 3.1) and an adaptivity mode
(Section 3.4): fully adaptive, strong-scaling (fixed batch size), or rigid
(fixed batch size and GPU count).  Hybrid-parallel jobs additionally carry a
:class:`~repro.jobs.hybrid.HybridSpec` that pins their per-replica shape.

Jobs complete after processing ``target_samples`` *effective* samples
(goodput integrated over time); the total is derived from the model's
category (total-GPU-time buckets of Section 4.1) scaled per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.types import AdaptivityMode
from repro.jobs.hybrid import HybridSpec
from repro.perf import profiles
from repro.perf.estimator import JobConstraints

#: Default per-job GPU cap when the submitter does not declare one
#: (Section 4.3 caps tuned jobs at 16 GPUs on the physical/hetero testbeds).
DEFAULT_MAX_GPUS = 16


@dataclass
class Job:
    """One submitted training job (immutable from the scheduler's view)."""

    job_id: str
    model_name: str
    submit_time: float
    target_samples: float
    adaptivity: AdaptivityMode = AdaptivityMode.ADAPTIVE
    min_gpus: int = 1
    max_gpus: int = DEFAULT_MAX_GPUS
    #: pinned total batch size for strong-scaling / rigid jobs.
    fixed_batch_size: int | None = None
    #: pinned GPU count for rigid jobs.
    fixed_num_gpus: int | None = None
    #: pinned GPU type, for jobs that disallow type changes.
    fixed_gpu_type: str | None = None
    #: non-preemptible jobs must keep their resources once started.
    preemptible: bool = True
    hybrid: HybridSpec | None = None

    def __post_init__(self) -> None:
        profiles.model_profile(self.model_name)  # validate
        if self.target_samples <= 0:
            raise ValueError("target_samples must be positive")
        if self.min_gpus < 1 or self.max_gpus < self.min_gpus:
            raise ValueError("invalid GPU limits")
        if self.adaptivity is AdaptivityMode.RIGID and self.fixed_num_gpus is None:
            raise ValueError("rigid jobs must pin a GPU count")
        if self.adaptivity is not AdaptivityMode.ADAPTIVE \
                and self.fixed_batch_size is None:
            raise ValueError("non-adaptive jobs must pin a batch size")

    @property
    def profile(self) -> profiles.ModelProfile:
        return profiles.model_profile(self.model_name)

    @property
    def restart_delay(self) -> float:
        """Checkpoint-restore cost in seconds (model-specific, Section 4.2)."""
        return self.profile.restart_delay_s

    @property
    def is_hybrid(self) -> bool:
        return self.hybrid is not None

    def constraints(self) -> JobConstraints:
        """Batch/GPU limits as seen by the Goodput Estimator."""
        profile = self.profile
        return JobConstraints(
            min_bsz=profile.min_bsz,
            max_bsz=profile.max_bsz,
            min_gpus=self.effective_min_gpus,
            max_gpus=self.effective_max_gpus,
            fixed_total_bsz=self.fixed_batch_size,
        )

    @property
    def effective_min_gpus(self) -> int:
        if self.fixed_num_gpus is not None:
            return self.fixed_num_gpus
        if self.hybrid is not None:
            return min(self.hybrid.stages_per_type.values())
        return self.min_gpus

    @property
    def effective_max_gpus(self) -> int:
        if self.fixed_num_gpus is not None:
            return self.fixed_num_gpus
        return self.max_gpus

    @property
    def allowed_gpu_types(self) -> tuple[str, ...] | None:
        """GPU types the job may use, or None for "any type"."""
        if self.fixed_gpu_type is not None:
            return (self.fixed_gpu_type,)
        if self.hybrid is not None:
            return tuple(self.hybrid.stages_per_type)
        return None


def make_job(job_id: str, model_name: str, submit_time: float, *,
             adaptivity: AdaptivityMode = AdaptivityMode.ADAPTIVE,
             work_scale: float = 1.0,
             max_gpus: int = DEFAULT_MAX_GPUS,
             fixed_batch_size: int | None = None,
             fixed_num_gpus: int | None = None,
             hybrid: HybridSpec | None = None,
             preemptible: bool = True) -> Job:
    """Create a job of a Table 2 model with sensible defaults.

    ``work_scale`` scales the model's category work total (jobs of the same
    model differ in length).  Non-adaptive jobs default their pinned batch
    size to the model's reference batch size if not supplied.
    """
    if work_scale <= 0:
        raise ValueError("work_scale must be positive")
    profile = profiles.model_profile(model_name)
    if adaptivity is not AdaptivityMode.ADAPTIVE and fixed_batch_size is None:
        fixed_batch_size = profile.min_bsz
    if adaptivity is AdaptivityMode.RIGID and fixed_num_gpus is None:
        fixed_num_gpus = 1
    target = profiles.target_effective_samples(model_name) * work_scale
    return Job(job_id=job_id, model_name=model_name, submit_time=submit_time,
               target_samples=target, adaptivity=adaptivity,
               max_gpus=max_gpus, fixed_batch_size=fixed_batch_size,
               fixed_num_gpus=fixed_num_gpus, hybrid=hybrid,
               preemptible=preemptible)


def isolated_runtime(job: Job, gpu_type: str, num_gpus: int,
                     num_nodes: int | None = None) -> float:
    """Ground-truth wall-clock seconds for the job alone on an allocation.

    Used by the finish-time-fairness metric (Section 5.5) to compute the
    isolated-cluster baseline JCT.  Returns ``inf`` if the allocation cannot
    run the job (e.g. the model does not fit the GPU type's memory).
    """
    if num_nodes is None:
        num_nodes = 1
    if job.hybrid is not None:
        return _isolated_hybrid_runtime(job, gpu_type, num_gpus, num_nodes)
    cap = profiles.max_local_bsz(job.model_name, gpu_type)
    if cap < 1:
        return math.inf
    model = profiles.true_goodput_model(job.model_name, gpu_type)
    rate = model.goodput(num_gpus, num_nodes,
                         max_local_bsz=cap,
                         max_total_bsz=job.profile.max_bsz,
                         min_total_bsz=job.profile.min_bsz,
                         fixed_total_bsz=job.fixed_batch_size)
    if rate <= 0:
        return math.inf
    return job.target_samples / rate


def _isolated_hybrid_runtime(job: Job, gpu_type: str, num_gpus: int,
                             num_nodes: int) -> float:
    """Isolated runtime for a hybrid-parallel job: as many whole pipeline
    replicas as the allocation can host."""
    from repro.jobs.hybrid import HybridPerfEstimator
    from repro.core.types import Configuration

    assert job.hybrid is not None
    stages = job.hybrid.stages(gpu_type)
    if stages is None or num_gpus < stages:
        return math.inf
    usable = (num_gpus // stages) * stages
    estimator = HybridPerfEstimator(job.model_name, job.hybrid)
    rate = estimator.goodput(Configuration(num_nodes, usable, gpu_type))
    if rate <= 0:
        return math.inf
    return job.target_samples / rate
