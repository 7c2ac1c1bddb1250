"""Cross-GPU-type throughput bootstrapping (Section 3.2, Equation 1).

When a job has multi-GPU experience on GPU type A but only a 1-GPU profile
on type B, Sia estimates B's multi-GPU throughput as::

    est_xput_B(N) = (xput_B(1) / xput_A(1)) * xput_A(N)

i.e. it assumes B's compute:communication scaling matches A's (which is
known) and rescales by the single-GPU speed ratio (which is also known from
the initial profiling pass).  The bootstrapped model is discarded as soon as
the job actually runs multi-GPU on B and real communication times become
available.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.perf.throughput import ThroughputModel


def bootstrap_ratio(single_gpu_xput_target: float,
                    single_gpu_xput_reference: float) -> float:
    """The 1-GPU speed ratio between the target and reference GPU types."""
    if single_gpu_xput_target <= 0 or single_gpu_xput_reference <= 0:
        raise ValueError("single-GPU throughputs must be positive")
    return single_gpu_xput_target / single_gpu_xput_reference


def bootstrap_throughput(single_gpu_xput_target: float,
                         single_gpu_xput_reference: float,
                         reference_multi_gpu_xput: float) -> float:
    """Equation (1): estimated multi-GPU throughput on the target type."""
    if reference_multi_gpu_xput < 0:
        raise ValueError("reference throughput must be non-negative")
    ratio = bootstrap_ratio(single_gpu_xput_target, single_gpu_xput_reference)
    return ratio * reference_multi_gpu_xput


class BootstrapModel:
    """Equation (1) as a throughput model, for multi-GPU plans on a type
    profiled only at one GPU.

    ``own`` is that type's fitted model; ``refs`` are the fitted models of
    the types with single- *and* multi-GPU data, in GPU-type order.  Per
    plan, the reference is the one with the largest positive 1-GPU
    throughput at the plan's local batch size, the first listed winning
    ties.  With none, the one-time perfect-scaling assumption applies: N
    replicas run at N x the single-replica rate (accumulation scales
    samples and time equally, so it does not change the rate).
    """

    def __init__(self, own: ThroughputModel, refs: list[ThroughputModel]):
        self.own = own
        self.refs = refs

    def throughput(self, local_bsz: float, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        own_single = self.own.throughput(local_bsz, 1, 1)
        reference, ref_single = None, 0.0
        for model in self.refs:
            single = model.throughput(local_bsz, 1, 1)
            if single > ref_single:
                reference, ref_single = model, single
        if reference is None:
            return own_single * num_gpus
        return bootstrap_throughput(
            own_single, ref_single,
            reference.throughput(local_bsz, num_gpus, num_nodes, accum_steps))


def bootstrap_rows(own_single: np.ndarray,
                   refs: list[tuple[np.ndarray, np.ndarray]],
                   num_gpus: np.ndarray | int) -> np.ndarray:
    """:meth:`BootstrapModel.throughput` over candidate rows.

    ``own_single`` is each row's 1-GPU throughput on its own type, and
    ``refs`` holds one ``(single, multi)`` pair of row arrays per
    reference slot, in listing order: the slot's 1-GPU throughput and its
    throughput at the row's plan.  A NaN ``single`` marks a slot the row
    has no reference in; it scores -inf, like a non-positive one, so it
    never wins.  Per row the largest positive ``single`` wins, the first
    slot on ties, and a row with no winner scales ``own_single`` perfectly.
    """
    if not refs:
        return own_single * num_gpus
    for i, (single, multi) in enumerate(refs):
        score = np.where(single > 0, single, -np.inf)
        if i == 0:
            ref_single, ref_multi, best = single, multi, score
            continue
        wins = score > best
        ref_single = np.where(wins, single, ref_single)
        ref_multi = np.where(wins, multi, ref_multi)
        best = np.maximum(best, score)
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = own_single / ref_single * ref_multi
    return np.where(np.isfinite(ref_single) & (ref_single > 0),
                    estimate, own_single * num_gpus)
