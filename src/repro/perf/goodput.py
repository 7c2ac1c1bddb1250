"""Goodput model: throughput x statistical efficiency, with batch-size
co-optimization (Sections 3.1-3.2).

Given an allocation shape (GPU type, GPU count ``k``, node count ``n``), the
Adaptive Executor picks the per-GPU batch size and gradient-accumulation
steps maximizing goodput, subject to

* the GPU type's memory limit on local batch size,
* the submitter's ``max_bsz`` cap on total batch size,
* a floor of the reference batch size ``M0`` (training below the submitted
  batch size is never beneficial: efficiency is capped and throughput falls).

Gradient accumulation lets memory-limited GPUs reach statistically-optimal
total batch sizes (Section 3.1, "Heterogeneous Execution").

:func:`best_plans` ranks the concatenated candidate grids of many
allocation shapes (a :class:`GridBatch`) in one pass, each segment under
its own scalar :class:`GoodputModel`, so the segments may belong to
different jobs, GPU types and throughput models: the estimator's round
pass (:func:`repro.perf.estimator.plan_requests`) ranks every cache miss of
a scheduling round this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.perf.efficiency import EfficiencyModel
from repro.perf.throughput import ThroughputModel

#: Cap on gradient-accumulation sub-steps considered per iteration.
MAX_ACCUM_STEPS: int = 16

#: Relative slack when shortlisting grid maxima in the batched pass.
#: Vectorized numpy ``pow`` can differ from CPython's by an ulp, so every
#: candidate within this band of a grid's batched maximum is re-evaluated
#: through the scalar :meth:`GoodputModel.evaluate` and the scalar
#: tie-break rule applied — making the batched optimizer *exactly*
#: equivalent to the per-candidate reference loop.
_SHORTLIST_RTOL: float = 1e-12

#: One candidate grid: the ``(accum, local)`` pairs and their numpy columns.
Grid = tuple[list[tuple[int, int]], np.ndarray, np.ndarray]

#: Candidate grids are pure functions of (shape, batch-size caps); one
#: cluster-wide scheduling round asks for the same few dozen grids hundreds
#: of times (every job of a model on every GPU type), so they are memoized
#: together with their numpy column views.
_GRID_CACHE: dict[tuple, Grid] = {}
_GRID_CACHE_MAX = 4096


@dataclass(frozen=True)
class BatchPlan:
    """An executable batch-size decision with its predicted rates."""

    local_bsz: int
    accum_steps: int
    total_batch_size: int
    throughput: float    # samples / second
    efficiency: float    # effective samples per sample
    goodput: float       # effective samples / second


def candidate_local_sizes(lo: int, hi: int, *, max_candidates: int = 24) -> list[int]:
    """A geometric grid of candidate local batch sizes in [lo, hi]."""
    if lo < 1 or hi < lo:
        return []
    sizes: set[int] = {lo, hi}
    value = float(lo)
    ratio = (hi / lo) ** (1.0 / max(1, max_candidates - 1)) if hi > lo else 1.0
    for _ in range(max_candidates):
        sizes.add(int(round(value)))
        value *= ratio
        if value > hi:
            break
    return sorted(s for s in sizes if lo <= s <= hi)


def candidate_grid(num_gpus: int, *, max_local_bsz: int, max_total_bsz: int,
                   min_total_bsz: int | None = None,
                   fixed_total_bsz: int | None = None) -> Grid | None:
    """The (memoized) batch-plan candidate grid for an allocation of
    ``num_gpus`` GPUs, or None when no plan satisfies the limits.

    ``fixed_total_bsz`` implements strong-scaling/rigid jobs: the total
    batch size is pinned and only its (local, accumulation) split varies.
    """
    if num_gpus < 1 or max_local_bsz < 1:
        return None
    if fixed_total_bsz is not None:
        key = ("fixed", num_gpus, fixed_total_bsz, max_local_bsz)
    else:
        floor_total = min_total_bsz or 1
        if floor_total > max_total_bsz:
            return None
        key = ("adaptive", num_gpus, max_local_bsz, max_total_bsz,
               floor_total)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        if fixed_total_bsz is not None:
            pairs = _fixed_total_grid(num_gpus, fixed_total_bsz,
                                      max_local_bsz)
        else:
            pairs = _adaptive_grid(num_gpus, max_local_bsz, max_total_bsz,
                                   floor_total)
        accums = np.fromiter((a for a, _ in pairs), dtype=np.int64,
                             count=len(pairs))
        locals_ = np.fromiter((m for _, m in pairs), dtype=np.int64,
                              count=len(pairs))
        if len(_GRID_CACHE) >= _GRID_CACHE_MAX:
            _GRID_CACHE.clear()
        _GRID_CACHE[key] = grid = (pairs, accums, locals_)
    return grid if grid[0] else None


def _adaptive_grid(num_gpus: int, max_local_bsz: int, max_total_bsz: int,
                   floor_total: int) -> list[tuple[int, int]]:
    """(accum, local) candidates for an adaptive-batch-size job."""
    pairs: list[tuple[int, int]] = []
    for accum in range(1, MAX_ACCUM_STEPS + 1):
        # Local size must keep the total within [floor, cap].
        lo = max(1, -(-floor_total // (num_gpus * accum)))  # ceil div
        hi = min(max_local_bsz, max_total_bsz // (num_gpus * accum))
        if hi < lo:
            continue
        pairs.extend((accum, local)
                     for local in candidate_local_sizes(lo, hi))
        # Accumulation only helps when memory-limited; once the full
        # range is reachable without accumulation there is no gain.
        if accum == 1 and max_local_bsz * num_gpus >= max_total_bsz:
            break
    return pairs


def _fixed_total_grid(num_gpus: int, total: int,
                      max_local_bsz: int) -> list[tuple[int, int]]:
    """(accum, local) splits of a pinned total batch size."""
    if total < num_gpus:
        return []  # cannot give every GPU at least one sample
    pairs: list[tuple[int, int]] = []
    for accum in range(1, MAX_ACCUM_STEPS + 1):
        local = total // (num_gpus * accum)
        if local < 1:
            break
        if local > max_local_bsz:
            continue
        pairs.append((accum, local))
    return pairs


class GridBatch:
    """The candidate grids of several allocation shapes, concatenated.

    Segment ``s`` (shape ``shapes[s]``, grid ``grids[s]``) occupies
    elements ``bounds[s]:bounds[s + 1]`` of the flat per-candidate arrays,
    so one numpy pass evaluates every segment at once.
    """

    def __init__(self, shapes: list[tuple[int, int]], grids: list[Grid]):
        self.shapes = shapes
        self.grids = grids
        self.sizes = [len(grid[0]) for grid in grids]
        self.bounds = [0, *accumulate(self.sizes)]
        if len(grids) == 1:  # the memoized columns themselves, uncopied
            _, self.accums, self.locals_ = grids[0]
        else:
            self.accums = np.concatenate([grid[1] for grid in grids])
            self.locals_ = np.concatenate([grid[2] for grid in grids])

    def __len__(self) -> int:
        return len(self.shapes)

    def column(self, values: list, first: int = 0,
               last: int | None = None) -> np.ndarray | float:
        """The per-candidate column of segments ``first:last`` that repeats
        ``values[s]``, one value per segment, over segment ``s``; the value
        itself when there is one segment, for numpy to broadcast."""
        if len(values) == 1:
            return values[0]
        return np.array(values).repeat(self.sizes[first:last])


def best_plans(batch: GridBatch, goodput: np.ndarray,
               models: list["GoodputModel"]) -> list[BatchPlan | None]:
    """The best plan of every segment of ``batch``, in one grouped pass.

    ``goodput`` is the batched goodput of every candidate and ``models[s]``
    the scalar model of segment ``s``.  Each segment's maximum comes from
    one ``np.maximum.reduceat``; its shortlist within ``_SHORTLIST_RTOL``
    is re-ranked through the scalar :meth:`GoodputModel.evaluate` in grid
    order, keeping the first strictly greater goodput, so every returned
    plan is bit-identical to that per-candidate loop over the segment
    alone, whatever the other segments are.
    """
    bounds = batch.bounds
    floors = [best - _SHORTLIST_RTOL * abs(best)
              for best in np.maximum.reduceat(goodput, bounds[:-1]).tolist()]
    if len(floors) > 1:
        floors = np.repeat(floors, batch.sizes)
    # A NaN or +inf maximum leaves a NaN floor: re-rank that segment whole.
    shortlist = np.flatnonzero((goodput >= floors) | np.isnan(floors))
    plans: list[BatchPlan | None] = [None] * len(batch)
    s = 0
    for idx in shortlist.tolist():  # ascending, so segments ascend too
        while idx >= bounds[s + 1]:
            s += 1
        accum, local = batch.grids[s][0][idx - bounds[s]]
        num_gpus, num_nodes = batch.shapes[s]
        plan = models[s].evaluate(local, num_gpus, num_nodes, accum)
        if plans[s] is None or plan.goodput > plans[s].goodput:
            plans[s] = plan
    return plans


class GoodputModel:
    """Combines one throughput model with the job's efficiency model.

    :meth:`optimize_batch_size` ranks the whole (accum_steps x
    candidate-local-bsz) grid in one numpy pass, then re-evaluates the
    (tiny) shortlist of maxima through the scalar :meth:`evaluate` so the
    returned numbers are bit-identical to the per-candidate reference loop.
    """

    def __init__(self, throughput_model: ThroughputModel,
                 efficiency_model: EfficiencyModel):
        self.throughput_model = throughput_model
        self.efficiency_model = efficiency_model

    def evaluate(self, local_bsz: int, num_gpus: int, num_nodes: int,
                 accum_steps: int = 1) -> BatchPlan:
        """Predicted rates for one fully-specified execution plan."""
        total = num_gpus * local_bsz * accum_steps
        xput = self.throughput_model.throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)
        eff = self.efficiency_model.efficiency(total)
        return BatchPlan(local_bsz=local_bsz, accum_steps=accum_steps,
                         total_batch_size=total, throughput=xput,
                         efficiency=eff, goodput=xput * eff)

    def optimize_batch_size(self, num_gpus: int, num_nodes: int, *,
                            max_local_bsz: int,
                            max_total_bsz: int,
                            min_total_bsz: int | None = None,
                            fixed_total_bsz: int | None = None) -> BatchPlan | None:
        """Best batch plan for an allocation shape, or None if infeasible:
        the one-segment case of :func:`best_plans`."""
        grid = candidate_grid(num_gpus, max_local_bsz=max_local_bsz,
                              max_total_bsz=max_total_bsz,
                              min_total_bsz=min_total_bsz,
                              fixed_total_bsz=fixed_total_bsz)
        if grid is None:
            return None
        batch = GridBatch([(num_gpus, num_nodes)], [grid])
        xput = self.throughput_model.throughput_batch(
            batch.locals_, num_gpus, num_nodes, batch.accums)
        goodput = xput * self.efficiency_model.efficiency_batch(
            num_gpus * batch.locals_ * batch.accums)
        return best_plans(batch, goodput, [self])[0]

    def goodput(self, num_gpus: int, num_nodes: int, *,
                max_local_bsz: int, max_total_bsz: int,
                min_total_bsz: int | None = None,
                fixed_total_bsz: int | None = None) -> float:
        """Convenience: maximum achievable goodput for an allocation shape."""
        plan = self.optimize_batch_size(
            num_gpus, num_nodes, max_local_bsz=max_local_bsz,
            max_total_bsz=max_total_bsz, min_total_bsz=min_total_bsz,
            fixed_total_bsz=fixed_total_bsz)
        return plan.goodput if plan is not None else 0.0
