"""Job abstractions: adaptivity modes, the Table 2 model zoo, and
hybrid-parallel (PMP x DP) job support."""

from repro.jobs.hybrid import HybridPerfEstimator, HybridPerfModel, HybridSpec
from repro.jobs.job import DEFAULT_MAX_GPUS, Job, isolated_runtime, make_job

__all__ = [
    "DEFAULT_MAX_GPUS",
    "Job",
    "isolated_runtime",
    "make_job",
    "HybridPerfEstimator",
    "HybridPerfModel",
    "HybridSpec",
]
