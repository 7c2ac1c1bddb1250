"""Performance models: throughput, statistical efficiency, goodput,
ground-truth catalog, online fitting, and the per-job Goodput Estimator."""

from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.estimator import JobConstraints, JobPerfEstimator
from repro.perf.fitting import (FitResult, Observation, fit_sync_params,
                                invert_sync_time)
from repro.perf.goodput import BatchPlan, GoodputModel
from repro.perf.profiles import (CATEGORY_MODELS, MODEL_ZOO, ModelProfile,
                                 max_local_bsz, model_profile,
                                 target_effective_samples,
                                 true_efficiency_params, true_goodput_model,
                                 true_throughput_params)
from repro.perf.throughput import GAMMA, ThroughputModel, ThroughputParams

__all__ = [
    "EfficiencyModel", "EfficiencyParams",
    "JobConstraints", "JobPerfEstimator",
    "FitResult", "Observation", "fit_sync_params", "invert_sync_time",
    "BatchPlan", "GoodputModel",
    "CATEGORY_MODELS", "MODEL_ZOO", "ModelProfile", "max_local_bsz",
    "model_profile", "target_effective_samples", "true_efficiency_params",
    "true_goodput_model", "true_throughput_params",
    "GAMMA", "ThroughputModel", "ThroughputParams",
]
