"""Online fitting of throughput-model parameters from observations.

Adaptive Executors report measured iteration times for whatever allocation a
job currently runs on (Section 3.5, every 30 s).  The Goodput Estimator
turns these measurements into :class:`~repro.perf.throughput.ThroughputParams`
for each GPU type the job has run on.  Like Pollux's profiler, the fit
reads one mean per configuration, not every report:

* 1-GPU observations pin the compute phase (``alpha_c``, ``beta_c``) — a
  linear fit of the mean step time per local batch size against local
  batch size;
* each multi-GPU configuration's mean iteration time is inverted through
  the gamma-norm to one sync point, and the points are fitted linearly
  against GPU count (separately for single-node and multi-node
  allocations).

Both are two-parameter non-negative least squares, solved in closed form,
with fixed splits when there is only one point: the paper's point is that
*little* data suffices once it is routed through the right model family.

Estimators fold reports into a :class:`RunningFit`, whose means update in
place: a report that moves no mean (an exact re-report) leaves the fit,
and every cache entry built on it, untouched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

from repro.perf.throughput import GAMMA, ThroughputParams


@dataclass(frozen=True)
class Observation:
    """One measured iteration on a concrete allocation."""

    gpu_type: str
    num_nodes: int
    num_gpus: int
    local_bsz: int
    accum_steps: int
    iter_time: float

    def __post_init__(self) -> None:
        if self.iter_time <= 0:
            raise ValueError("iter_time must be positive")
        if self.num_gpus < self.num_nodes or self.num_nodes < 1:
            raise ValueError("invalid allocation shape")
        if self.local_bsz < 1 or self.accum_steps < 1:
            raise ValueError("invalid batch plan")


def _nonneg_linear_fit(xs: Sequence[float], ys: Sequence[float],
                       ) -> tuple[float, float]:
    """Least-squares fit ``y = a + b*x`` with both coefficients clamped >= 0,
    solved from the 2x2 normal equations (in centered form).  Two or more
    points need at least two distinct ``xs``."""
    if len(xs) == 1:
        # One point: attribute a small fixed share to the intercept.
        y, x = float(ys[0]), float(xs[0])
        if x <= 0:
            return max(y, 0.0), 0.0
        return 0.1 * y, 0.9 * y / x
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sxy = 0.0
    for x, y in zip(xs, ys):
        sxx += (x - x_mean) * (x - x_mean)
        sxy += (x - x_mean) * (y - y_mean)
    b = sxy / sxx
    a = y_mean - b * x_mean
    if a < 0 or b < 0:
        # Clamp and re-fit the free coefficient for stability.
        if b < 0:
            return y_mean, 0.0
        return 0.0, (sum(x * y for x, y in zip(xs, ys))
                     / sum(x * x for x in xs))
    return a, b


def invert_sync_time(iter_time: float, grad_time: float,
                     accum_steps: int, gamma: float = GAMMA) -> float:
    """Recover T_sync from a measured multi-GPU iteration time."""
    overlapped = iter_time - (accum_steps - 1) * grad_time
    if overlapped <= grad_time:
        return 0.0
    return (overlapped ** gamma - grad_time ** gamma) ** (1.0 / gamma)


def fit_sync_params(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Fit (alpha, beta) of ``t_sync = alpha + beta * max(0, k - 2)``."""
    if not points:
        raise ValueError("need at least one sync observation")
    xs = [max(0, k - 2) for k, _ in points]
    ys = [t for _, t in points]
    if len(set(xs)) == 1:
        mean_t = sum(ys) / len(ys)
        return mean_t, 0.05 * mean_t
    return _nonneg_linear_fit(xs, ys)


#: Relative band inside which a refit reproduces a stored fit.  Running
#: means and the closed-form solve move parameters by float noise (below
#: 1e-12 relative); real evidence moves them by 1e-5 or more.  As with
#: ``repro.perf.goodput._SHORTLIST_RTOL``, an ulp is not a change.
FIT_RTOL: float = 1e-12

_PARAM_FIELDS = tuple(f.name for f in fields(ThroughputParams))


@dataclass
class FitResult:
    """Fitted parameters plus which phases were actually observed."""

    params: ThroughputParams
    has_single_gpu: bool
    has_intra_node: bool  # multi-GPU, single-node observations seen
    has_inter_node: bool  # multi-node observations seen

    @property
    def has_multi_gpu(self) -> bool:
        return self.has_intra_node or self.has_inter_node

    def reproduces(self, stored: FitResult | None) -> bool:
        """Whether this fit says what ``stored`` says: the same flags, and
        every parameter within :data:`FIT_RTOL` relative of the stored
        one (a stored zero must stay exactly zero)."""
        if stored is None or (
                (self.has_single_gpu, self.has_intra_node, self.has_inter_node)
                != (stored.has_single_gpu, stored.has_intra_node,
                    stored.has_inter_node)):
            return False
        for name in _PARAM_FIELDS:
            new, old = getattr(self.params, name), getattr(stored.params, name)
            if not abs(new - old) <= FIT_RTOL * abs(old):
                return False
        return True


class RunningFit:
    """The fit state of one GPU type: one running mean per configuration.

    * the step time (``iter_time / accum_steps``) per local batch size at
      the smallest GPU count seen, for the compute fit.  A smaller count
      restarts them; a larger one leaves them alone.
    * the iteration time per multi-GPU configuration ``(num_gpus,
      num_nodes, local_bsz, accum_steps)``, in first-report order.

    A mean moves by ``m += (t - m) / n``, so a report equal to its
    configuration's mean leaves it bit-equal, and :meth:`add` says whether
    anything :meth:`fit` reads moved.  :meth:`fit` is a pure function of
    the means and flags: it inverts each configuration's sync point once,
    from its mean, and costs O(configurations), not O(reports).
    """

    def __init__(self, gamma: float = GAMMA) -> None:
        self.gamma = gamma
        #: reports folded in so far.
        self.reports = 0
        self.has_single_gpu = False
        #: the smallest GPU count seen (0 before the first report), and
        #: ``local_bsz -> [mean step time, count]`` at that count.
        self._smallest = 0
        self._compute: dict[int, list] = {}
        #: ``(num_gpus, num_nodes, local_bsz, accum_steps) -> [mean
        #: iteration time, count]`` of every multi-GPU configuration.
        self._multi: dict[tuple[int, int, int, int], list] = {}

    def add(self, obs: Observation) -> bool:
        """Fold one report in; return whether any mean, flag or the
        smallest GPU count moved (if not, :meth:`fit` is unchanged)."""
        self.reports += 1
        k = obs.num_gpus
        if k == 1:
            moved = not self.has_single_gpu
            self.has_single_gpu = True
        else:
            moved = _fold(self._multi, (k, obs.num_nodes, obs.local_bsz,
                                        obs.accum_steps), obs.iter_time)
        if self._smallest and k > self._smallest:
            return moved
        if k != self._smallest:
            self._smallest = k
            self._compute = {}
        return _fold(self._compute, obs.local_bsz,
                     obs.iter_time / obs.accum_steps) or moved

    def compute_params(self) -> tuple[float, float]:
        """``(alpha_c, beta_c)`` from the step times at the smallest GPU
        count seen.

        With one GPU there is no sync phase, so step time is
        ``iter_time / accum_steps = alpha_c + beta_c * local_bsz``, fitted
        to the mean step time per local batch size.  If the job has never
        run on one GPU (possible for schedulers without a start-small
        rule, e.g. Pollux), the smallest GPU count observed stands in — its
        step times include some sync, so the compute estimate is
        conservative until real 1-GPU data arrives.
        """
        if not self.reports:
            raise ValueError("need at least one observation")
        sizes = sorted(self._compute)
        return _nonneg_linear_fit(
            sizes, [self._compute[size][0] for size in sizes])

    def fit(self) -> FitResult:
        """The full fit over every report so far.

        Each multi-GPU configuration's mean iteration time is inverted to
        one sync point under the compute fit, and the points are fitted
        per regime (:func:`fit_sync_params`).  Unobserved sync regimes are
        extrapolated conservatively: missing inter-node parameters reuse
        intra-node ones (scaled up) and vice versa; with no sync
        observations at all both default to zero — callers are expected
        to treat such models with the bootstrap/perfect-scaling logic of
        Section 3.2 rather than trusting zero-cost communication.
        """
        alpha_c, beta_c = self.compute_params()
        intra_points: list[tuple[int, float]] = []
        inter_points: list[tuple[int, float]] = []
        for (k, n, m, s), (t, _) in self._multi.items():
            sync = invert_sync_time(t, alpha_c + beta_c * m, s, self.gamma)
            (intra_points if n == 1 else inter_points).append((k, sync))

        alpha_r = beta_r = alpha_n = beta_n = 0.0
        if intra_points:
            alpha_r, beta_r = fit_sync_params(intra_points)
        if inter_points:
            alpha_n, beta_n = fit_sync_params(inter_points)
        if intra_points and not inter_points:
            # Crossing nodes is never cheaper than staying inside one.
            alpha_n, beta_n = alpha_r * 3.0, beta_r * 3.0
        elif inter_points and not intra_points:
            alpha_r, beta_r = alpha_n / 3.0, beta_n / 3.0

        params = ThroughputParams(alpha_c=alpha_c, beta_c=beta_c,
                                  alpha_r=alpha_r, beta_r=beta_r,
                                  alpha_n=alpha_n, beta_n=beta_n,
                                  gamma=self.gamma)
        return FitResult(params=params, has_single_gpu=self.has_single_gpu,
                         has_intra_node=bool(intra_points),
                         has_inter_node=bool(inter_points))


def _fold(means: dict, key, value: float) -> bool:
    """Fold ``value`` into the running ``[mean, count]`` at ``key``;
    return whether the mean moved (a new key always does)."""
    entry = means.get(key)
    if entry is None:
        means[key] = [value, 1]
        return True
    mean = entry[0]
    entry[1] += 1
    entry[0] = mean + (value - mean) / entry[1]
    return entry[0] != mean

