"""TunedJobs: hand-tuned batch size and GPU count for rigid schedulers.

Gavel (and the other inelastic baselines) cannot auto-tune job parameters,
so Section 4.3 manually tunes each trace job: search (batch size, GPU
count) combinations and randomly choose one whose speedup over the 1-GPU
optimal-batch baseline is 50-80 % of ideal (i.e. 50-80 % scaling
efficiency), capped at ``max_count`` GPUs.  We measure speedups on the
job's fastest feasible GPU type, matching the paper's use of simulated
runtimes for tuning.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.types import AdaptivityMode
from repro.jobs.job import Job, make_job
from repro.perf import profiles

#: candidate GPU counts the tuner searches (powers of two, Section 4.3
#: caps at 16 GPUs on the physical/heterogeneous testbeds).
_CANDIDATE_COUNTS = (1, 2, 4, 8, 16)

#: target scaling-efficiency band from Section 4.3.
EFFICIENCY_BAND = (0.5, 0.8)


def _best_gpu_type(model_name: str, cluster: Cluster) -> str | None:
    """The GPU type the model runs fastest on (1 GPU, optimal batch)."""
    best_type, best_rate = None, 0.0
    profile = profiles.model_profile(model_name)
    for gpu_type in cluster.gpu_types:
        cap = profiles.max_local_bsz(model_name, gpu_type)
        if cap < 1:
            continue
        model = profiles.true_goodput_model(model_name, gpu_type)
        rate = model.goodput(1, 1, max_local_bsz=cap,
                             max_total_bsz=profile.max_bsz,
                             min_total_bsz=profile.min_bsz)
        if rate > best_rate:
            best_type, best_rate = gpu_type, rate
    return best_type


def _candidates(cluster: Cluster, model_name: str,
                limit: int) -> list[tuple[int, int]]:
    """Every (GPU count <= ``limit``, batch size) pair in the efficiency
    band on the model's fastest GPU type."""
    profile = profiles.model_profile(model_name)
    gpu_type = _best_gpu_type(model_name, cluster)
    if gpu_type is None:
        return []
    cap = profiles.max_local_bsz(model_name, gpu_type)
    model = profiles.true_goodput_model(model_name, gpu_type)
    baseline = model.goodput(1, 1, max_local_bsz=cap,
                             max_total_bsz=profile.max_bsz,
                             min_total_bsz=profile.min_bsz)
    node_size = cluster.max_node_size(gpu_type)

    candidates: list[tuple[int, int]] = []
    for count in _CANDIDATE_COUNTS:
        if count > limit:
            continue
        nodes = max(1, -(-count // node_size))
        for factor in (1, 2, 4, 8):
            bsz = min(profile.max_bsz, profile.min_bsz * count * factor)
            rate = model.goodput(count, nodes, max_local_bsz=cap,
                                 max_total_bsz=profile.max_bsz,
                                 fixed_total_bsz=bsz)
            if rate <= 0 or baseline <= 0:
                continue
            efficiency = rate / (baseline * count)
            if EFFICIENCY_BAND[0] <= efficiency <= EFFICIENCY_BAND[1]:
                candidates.append((count, bsz))
    return candidates


def _pick(job: Job, candidates: list[tuple[int, int]],
          rng: np.random.Generator) -> tuple[int, int]:
    """One uniform draw among ``candidates``, or (1, reference batch)
    without drawing when there are none."""
    if not candidates:
        return 1, job.profile.min_bsz
    return candidates[int(rng.integers(0, len(candidates)))]


def tune_job(job: Job, cluster: Cluster, rng: np.random.Generator,
             *, max_count: int = 16) -> tuple[int, int]:
    """Pick a (fixed_num_gpus, fixed_batch_size) pair for one job.

    Returns the chosen pair; falls back to (1, reference batch) when no
    combination lands in the efficiency band (tiny models).
    """
    limit = min(max_count, job.max_gpus)
    return _pick(job, _candidates(cluster, job.model_name, limit), rng)


def tuned_jobs(jobs: list[Job], cluster: Cluster, *, seed: int = 0,
               max_count: int = 16,
               mode: AdaptivityMode = AdaptivityMode.RIGID) -> list[Job]:
    """TunedJobs conversion of a trace: every job becomes rigid (or
    strong-scaling) with tuned parameters, preserving its work total."""
    if mode is AdaptivityMode.ADAPTIVE:
        raise ValueError("tuned jobs are rigid or strong-scaling")
    rng = np.random.default_rng(seed)
    # The candidates depend on the model and the GPU-count limit alone, so
    # a trace needs one search per (model, limit), not one per job.
    searched: dict[tuple[str, int], list[tuple[int, int]]] = {}
    out: list[Job] = []
    for job in jobs:
        key = (job.model_name, min(max_count, job.max_gpus))
        if key not in searched:
            searched[key] = _candidates(cluster, *key)
        count, bsz = _pick(job, searched[key], rng)
        tuned = make_job(
            job.job_id, job.model_name, job.submit_time,
            adaptivity=mode,
            max_gpus=job.max_gpus,
            fixed_batch_size=bsz,
            fixed_num_gpus=count if mode is AdaptivityMode.RIGID else None,
        )
        tuned.target_samples = job.target_samples
        out.append(tuned)
    return out
