"""Ground-truth performance catalog for the Table 2 model zoo.

The paper seeds its simulator with throughput/efficiency profiles measured on
real hardware.  We have no hardware, so this module *synthesizes* the
ground truth: for each (model, GPU type) pair it derives Pollux-style
throughput parameters from

* a per-model compute cost on the reference GPU (t4),
* a per-model, per-GPU-type speedup factor encoding the heterogeneity the
  paper reports (Figure 2/6: BERT strongly prefers A100; DeepSpeech2 scales
  best on RTX; small CNNs under-utilize big GPUs),
* the model's gradient size and the GPU type's interconnect bandwidths
  (which determine all-reduce costs and hence *scaling* differences across
  types — the "distinct compute-to-network-bandwidth ratios" of Section 1),
* the model's memory footprint and the GPU's memory (which bound the local
  batch size, driving gradient accumulation and Gavel's under-utilization
  of large-memory GPUs).

Schedulers never read this catalog directly: the simulator uses it to
generate profiling measurements and execution outcomes, and each scheduler
fits its own models from those observations (Section 3.2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.cluster.gpu import gpu_spec
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.goodput import GoodputModel
from repro.perf.throughput import GAMMA, ThroughputModel, ThroughputParams

#: base network latency terms (seconds) for all-reduce setup.
_INTER_NODE_LATENCY_S = 0.008
_INTRA_NODE_LATENCY_S = 0.002


@dataclass(frozen=True)
class ModelProfile:
    """Static description of one Table 2 model."""

    name: str
    category: str           # S / M / L / XL / XXL (by total GPU time)
    task: str
    dataset: str
    min_bsz: int            # reference batch size M0 (efficiency == 1)
    max_bsz: int            # submitter-declared maximum total batch size
    optimizer: str          # 'sgd' or 'adamw' (selects LR scaling rule)
    alpha_c_t4: float       # fixed per-step compute overhead on t4 (s)
    beta_c_t4: float        # compute seconds per sample on t4
    speedup: dict[str, float]   # per-GPU-type compute speedup over t4
    grad_size_gb: float     # gradient/all-reduce payload (GB)
    fixed_mem_gb: float     # weights + optimizer state resident per GPU
    per_sample_mem_gb: float    # activation memory per local sample
    grad_noise_scale: float     # efficiency model phi
    restart_delay_s: float      # checkpoint-restore cost (25-250 s range)
    target_t4_hours: float      # isolated 1x t4 runtime, sets total work


#: Table 2 model zoo.  XXL (2.8B GPT) is hybrid-parallel and handled by
#: :mod:`repro.jobs.hybrid`; it still appears here for efficiency/restart
#: parameters and A100/RTX compute costs.
MODEL_ZOO: dict[str, ModelProfile] = {
    "resnet18": ModelProfile(
        name="resnet18", category="S", task="image-classification",
        dataset="cifar10", min_bsz=128, max_bsz=4096, optimizer="sgd",
        alpha_c_t4=0.004, beta_c_t4=0.0008,
        speedup={"t4": 1.0, "rtx": 2.2, "a100": 4.0, "quad": 2.4},
        grad_size_gb=0.045, fixed_mem_gb=0.5, per_sample_mem_gb=0.003,
        grad_noise_scale=1500.0, restart_delay_s=25.0, target_t4_hours=0.6),
    "deepspeech2": ModelProfile(
        name="deepspeech2", category="M", task="speech-recognition",
        dataset="cmu-arctic", min_bsz=20, max_bsz=640, optimizer="sgd",
        alpha_c_t4=0.010, beta_c_t4=0.010,
        speedup={"t4": 1.0, "rtx": 2.8, "a100": 3.5, "quad": 2.5},
        grad_size_gb=0.14, fixed_mem_gb=1.0, per_sample_mem_gb=0.08,
        grad_noise_scale=300.0, restart_delay_s=40.0, target_t4_hours=3.0),
    "bert": ModelProfile(
        name="bert", category="M", task="question-answering",
        dataset="squad", min_bsz=12, max_bsz=384, optimizer="adamw",
        alpha_c_t4=0.010, beta_c_t4=0.035,
        speedup={"t4": 1.0, "rtx": 1.8, "a100": 7.5, "quad": 2.8},
        grad_size_gb=0.42, fixed_mem_gb=1.5, per_sample_mem_gb=0.35,
        grad_noise_scale=150.0, restart_delay_s=90.0, target_t4_hours=5.0),
    "yolov3": ModelProfile(
        name="yolov3", category="L", task="object-detection",
        dataset="pascal-voc", min_bsz=8, max_bsz=512, optimizer="sgd",
        alpha_c_t4=0.010, beta_c_t4=0.025,
        speedup={"t4": 1.0, "rtx": 2.3, "a100": 4.5, "quad": 2.5},
        grad_size_gb=0.24, fixed_mem_gb=1.2, per_sample_mem_gb=0.25,
        grad_noise_scale=100.0, restart_delay_s=70.0, target_t4_hours=20.0),
    "resnet50": ModelProfile(
        name="resnet50", category="XL", task="image-classification",
        dataset="imagenet-1k", min_bsz=200, max_bsz=12800, optimizer="sgd",
        alpha_c_t4=0.008, beta_c_t4=0.012,
        speedup={"t4": 1.0, "rtx": 2.0, "a100": 5.5, "quad": 2.5},
        grad_size_gb=0.10, fixed_mem_gb=1.0, per_sample_mem_gb=0.035,
        grad_noise_scale=8000.0, restart_delay_s=140.0, target_t4_hours=120.0),
    "gpt-2.8b": ModelProfile(
        name="gpt-2.8b", category="XXL", task="llm-finetuning",
        dataset="squad", min_bsz=48, max_bsz=384, optimizer="adamw",
        alpha_c_t4=0.05, beta_c_t4=0.9,
        speedup={"t4": 1.0, "rtx": 1.9, "a100": 7.0, "quad": 2.6},
        grad_size_gb=5.6, fixed_mem_gb=44.8, per_sample_mem_gb=0.9,
        grad_noise_scale=200.0, restart_delay_s=250.0, target_t4_hours=400.0),
}

#: Models by total-GPU-time category, used by the trace generators.
CATEGORY_MODELS: dict[str, tuple[str, ...]] = {
    "S": ("resnet18",),
    "M": ("bert", "deepspeech2"),
    "L": ("yolov3",),
    "XL": ("resnet50",),
    "XXL": ("gpt-2.8b",),
}


def model_profile(name: str) -> ModelProfile:
    try:
        return MODEL_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_ZOO))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


@functools.lru_cache(maxsize=None)
def true_throughput_params(model_name: str, gpu_type: str) -> ThroughputParams:
    """Ground-truth throughput parameters for (model, GPU type)."""
    profile = model_profile(model_name)
    spec = gpu_spec(gpu_type)
    speedup = profile.speedup.get(gpu_type, spec.compute_scale)

    # Compute phase: per-sample cost shrinks with the model-specific speedup;
    # fixed overheads shrink more slowly (kernel-launch latencies don't get
    # tensor-core speedups).
    alpha_c = profile.alpha_c_t4 / speedup ** 0.5
    beta_c = profile.beta_c_t4 / speedup

    # Sync phase: ring all-reduce moves ~2x the gradient payload; time is
    # payload / bandwidth plus a latency term, with a small per-extra-GPU
    # increment for the longer ring.
    payload_gbit = 2.0 * profile.grad_size_gb * 8.0
    intra = payload_gbit / spec.intra_node_bw_gbps
    inter = payload_gbit / spec.inter_node_bw_gbps
    alpha_r = _INTRA_NODE_LATENCY_S + intra
    beta_r = 0.05 * intra
    alpha_n = _INTER_NODE_LATENCY_S + inter
    beta_n = 0.06 * inter
    return ThroughputParams(alpha_c=alpha_c, beta_c=beta_c,
                            alpha_r=alpha_r, beta_r=beta_r,
                            alpha_n=alpha_n, beta_n=beta_n, gamma=GAMMA)


def max_local_bsz(model_name: str, gpu_type: str) -> int:
    """Largest per-GPU batch size that fits the GPU's memory (0 if the model
    does not fit at all — e.g. 2.8B GPT on any single GPU)."""
    profile = model_profile(model_name)
    spec = gpu_spec(gpu_type)
    headroom = spec.memory_gb - profile.fixed_mem_gb
    if headroom <= 0:
        return 0
    return max(0, int(headroom / profile.per_sample_mem_gb))


def true_efficiency_params(model_name: str) -> EfficiencyParams:
    profile = model_profile(model_name)
    return EfficiencyParams(grad_noise_scale=profile.grad_noise_scale,
                            init_batch_size=profile.min_bsz)


def true_goodput_model(model_name: str, gpu_type: str) -> GoodputModel:
    """Ground-truth goodput model for (model, GPU type)."""
    return GoodputModel(
        ThroughputModel(true_throughput_params(model_name, gpu_type)),
        EfficiencyModel(true_efficiency_params(model_name)),
    )


@functools.lru_cache(maxsize=None)
def reference_goodput(model_name: str) -> float:
    """Goodput of the model on a single t4 GPU at its optimal batch size.

    Used to convert ``target_t4_hours`` into total effective samples.
    """
    profile = model_profile(model_name)
    local_cap = max_local_bsz(model_name, "t4")
    if local_cap == 0:
        # Model doesn't fit one t4 (XXL); use an un-memory-limited rate as
        # the reference so work totals remain well-defined.
        local_cap = profile.min_bsz
    model = true_goodput_model(model_name, "t4")
    value = model.goodput(1, 1, max_local_bsz=local_cap,
                          max_total_bsz=profile.max_bsz,
                          min_total_bsz=profile.min_bsz)
    if value <= 0:
        raise RuntimeError(f"reference goodput for {model_name} is zero")
    return value


def target_effective_samples(model_name: str) -> float:
    """Total effective samples a job of this model must process to finish."""
    profile = model_profile(model_name)
    return profile.target_t4_hours * 3600.0 * reference_goodput(model_name)
