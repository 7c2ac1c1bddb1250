"""Cluster schedulers: Sia and the paper's baselines."""

from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   pack_gpus_on_type)
from repro.schedulers.gavel import GavelScheduler
from repro.schedulers.pollux import GAParams, PolluxEstimator, PolluxScheduler
from repro.schedulers.rigid import (FIFOScheduler, ShockwaveScheduler,
                                    SRTFScheduler, ThemisScheduler,
                                    fair_finish_ratio)
from repro.schedulers.sia import SiaScheduler

__all__ = [
    "JobView", "RoundPlan", "Scheduler", "pack_gpus_on_type",
    "GavelScheduler",
    "GAParams", "PolluxEstimator", "PolluxScheduler",
    "FIFOScheduler", "SRTFScheduler", "ThemisScheduler",
    "ShockwaveScheduler", "fair_finish_ratio",
    "SiaScheduler",
]
