"""Cluster schedulers: Sia and the paper's baselines."""

from repro.schedulers.base import (JobView, RoundPlan, Scheduler,
                                   pack_gpus_on_type)
from repro.schedulers.gavel import GavelScheduler
from repro.schedulers.pollux import GAParams, PolluxEstimator, PolluxScheduler
from repro.schedulers.shockwave import ShockwaveScheduler, fair_finish_ratio
from repro.schedulers.sia import SiaScheduler
from repro.schedulers.simple import FIFOScheduler, SRTFScheduler
from repro.schedulers.themis import ThemisScheduler

__all__ = [
    "JobView", "RoundPlan", "Scheduler", "pack_gpus_on_type",
    "GavelScheduler",
    "GAParams", "PolluxEstimator", "PolluxScheduler",
    "ShockwaveScheduler", "fair_finish_ratio",
    "SiaScheduler",
    "FIFOScheduler", "SRTFScheduler",
    "ThemisScheduler",
]
