"""Online fitting of throughput-model parameters from observations.

Adaptive Executors report measured iteration times for whatever allocation a
job currently runs on (Section 3.5, every 30 s).  The Goodput Estimator
turns these measurements into :class:`~repro.perf.throughput.ThroughputParams`
for each GPU type the job has run on:

* 1-GPU observations pin the compute phase (``alpha_c``, ``beta_c``) — a
  linear fit of step time against local batch size;
* multi-GPU observations are inverted through the gamma-norm to recover the
  sync time, then fitted linearly against GPU count (separately for
  single-node and multi-node allocations).

The fits are deliberately simple (non-negative least squares on one or two
points when that is all we have): the paper's point is that *little* data
suffices once it is routed through the right model family.

Estimators fold reports into a :class:`RunningFit`, which refits only what
a new report can move and still equals :func:`fit_throughput_params` over
all reports bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

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


def _nonneg_linear_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares fit ``y = a + b*x`` with both coefficients clamped >= 0."""
    if len(xs) == 1:
        # One point: attribute a small fixed share to the intercept.
        y, x = float(ys[0]), float(xs[0])
        if x <= 0:
            return max(y, 0.0), 0.0
        return 0.1 * y, 0.9 * y / x
    design = np.stack([np.ones_like(xs, dtype=float), xs.astype(float)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ys.astype(float), rcond=None)
    a, b = float(coef[0]), float(coef[1])
    if a < 0 or b < 0:
        # Clamp and re-fit the free coefficient for stability.
        if b < 0:
            return float(np.mean(ys)), 0.0
        return 0.0, float(np.sum(xs * ys) / np.sum(xs * xs))
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
    xs = np.array([max(0, k - 2) for k, _ in points], dtype=float)
    ys = np.array([t for _, t in points], dtype=float)
    if len(set(xs.tolist())) == 1:
        mean_t = float(np.mean(ys))
        return mean_t, 0.05 * mean_t
    return _nonneg_linear_fit(xs, ys)


#: Relative band inside which a refit reproduces a stored fit.  Averaging
#: duplicate reports and ``lstsq`` move parameters by float noise (below
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
    """The fit state of one GPU type, folded one report at a time.

    :meth:`fit` equals :func:`fit_throughput_params` over every report
    added so far, bit for bit, but redoes only what new reports can move:

    * step-time sums and counts are kept per local batch size at the
      smallest GPU count seen, in report order.  A smaller count restarts
      them; a larger count can never become the smallest again.
    * ``(alpha_c, beta_c)`` is cached and refitted only after a report at
      or below that smallest count.
    * multi-GPU reports are kept, with the sync points inverted from them
      under the cached compute fit.  If the compute fit moved, all of them
      are re-inverted, otherwise only the new ones.
    * each sync regime (intra- and inter-node) caches its
      :func:`fit_sync_params` result with the length of the point list it
      was fitted on, and refits only when that list grew or was
      re-inverted.  :func:`fit_sync_params` reruns on the full point lists:
      count-weighted least squares has no bit-exact incremental form.

    :meth:`add` is O(1) and touches no numpy.  The regime caches are not
    pickled (:meth:`__getstate__`); a restored fit recomputes them on its
    first :meth:`fit`.
    """

    #: ``(point count, (alpha, beta))`` of the last sync fit per regime, or
    #: None before one (class defaults, so restored objects start empty).
    _intra_fit: tuple[int, tuple[float, float]] | None = None
    _inter_fit: tuple[int, tuple[float, float]] | None = None

    def __init__(self, gamma: float = GAMMA) -> None:
        self.gamma = gamma
        #: reports folded in so far.
        self.reports = 0
        self.has_single_gpu = False
        #: the smallest GPU count seen (0 before the first report), and
        #: ``local_bsz -> [step-time sum, count]`` at that count.
        self._smallest = 0
        self._compute: dict[int, list] = {}
        self._compute_fit: tuple[float, float] | None = None
        #: ``(num_gpus, num_nodes, local_bsz, accum_steps, iter_time)`` of
        #: every multi-GPU report, in report order.
        self._multi: list[tuple[int, int, int, int, float]] = []
        #: sync points of the first ``_inverted`` multi-GPU reports, split
        #: by node count, inverted under the compute fit ``_inverted_under``.
        self._intra: list[tuple[int, float]] = []
        self._inter: list[tuple[int, float]] = []
        self._inverted = 0
        self._inverted_under: tuple[float, float] | None = None

    def __getstate__(self) -> dict:
        """Every attribute but the regime caches, which are pure functions
        of the pickled point lists."""
        state = self.__dict__.copy()
        state.pop("_intra_fit", None)
        state.pop("_inter_fit", None)
        return state

    def add(self, obs: Observation) -> None:
        """Fold one report in."""
        self.reports += 1
        k = obs.num_gpus
        if k == 1:
            self.has_single_gpu = True
        else:
            self._multi.append((k, obs.num_nodes, obs.local_bsz,
                                obs.accum_steps, obs.iter_time))
        if self._smallest and k > self._smallest:
            return
        if k != self._smallest:
            self._smallest = k
            self._compute = {}
        step_time = obs.iter_time / obs.accum_steps
        entry = self._compute.get(obs.local_bsz)
        if entry is None:
            self._compute[obs.local_bsz] = [step_time, 1]
        else:
            entry[0] += step_time
            entry[1] += 1
        self._compute_fit = None

    def compute_params(self) -> tuple[float, float]:
        """``(alpha_c, beta_c)``, as :func:`fit_compute_params` fits it."""
        if self._compute_fit is None:
            if not self.reports:
                raise ValueError("need at least one observation")
            sizes = sorted(self._compute)
            self._compute_fit = _nonneg_linear_fit(
                np.array(sizes),
                np.array([total / count for total, count
                          in map(self._compute.__getitem__, sizes)]))
        return self._compute_fit

    def fit(self) -> FitResult:
        """The full fit over every report so far (see
        :func:`fit_throughput_params`)."""
        compute = self.compute_params()
        alpha_c, beta_c = compute
        if compute != self._inverted_under:
            self._intra, self._inter, self._inverted = [], [], 0
            self._inverted_under = compute
            self._intra_fit = self._inter_fit = None
        for k, n, m, s, t in self._multi[self._inverted:]:
            sync = invert_sync_time(t, alpha_c + beta_c * m, s, self.gamma)
            (self._intra if n == 1 else self._inter).append((k, sync))
        self._inverted = len(self._multi)
        intra_points, inter_points = self._intra, self._inter

        alpha_r = beta_r = alpha_n = beta_n = 0.0
        if intra_points:
            self._intra_fit = _sync_fit(self._intra_fit, intra_points)
            alpha_r, beta_r = self._intra_fit[1]
        if inter_points:
            self._inter_fit = _sync_fit(self._inter_fit, inter_points)
            alpha_n, beta_n = self._inter_fit[1]
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


def _sync_fit(cached: tuple[int, tuple[float, float]] | None,
              points: list[tuple[int, float]],
              ) -> tuple[int, tuple[float, float]]:
    """``cached`` when it was fitted on ``points`` as they stand, else a
    fresh ``(len(points), fit_sync_params(points))``.  Between
    re-inversions a point list only grows, so its length names it."""
    if cached is not None and cached[0] == len(points):
        return cached
    return len(points), fit_sync_params(points)


def _running_fit(observations: list[Observation],
                 gamma: float = GAMMA) -> RunningFit:
    state = RunningFit(gamma)
    for obs in observations:
        state.add(obs)
    return state


def fit_compute_params(observations: list[Observation]) -> tuple[float, float]:
    """Fit (alpha_c, beta_c) from 1-GPU observations.

    With one GPU there is no sync phase, so step time is
    ``iter_time / accum_steps = alpha_c + beta_c * local_bsz``, fitted to
    the mean step time per local batch size.  If the job has never run on
    one GPU (possible for schedulers without a start-small rule, e.g.
    Pollux), the smallest GPU count observed stands in — its step times
    include some sync, so the compute estimate is conservative until real
    1-GPU data arrives.
    """
    return _running_fit(observations).compute_params()


def fit_throughput_params(observations: list[Observation],
                          gamma: float = GAMMA) -> FitResult:
    """Full fit for one GPU type from all observations on that type.

    Multi-GPU observations are inverted to sync times under the compute
    fit and fitted per regime (:func:`fit_sync_params`).  Unobserved sync
    regimes are extrapolated conservatively: missing inter-node parameters
    reuse intra-node ones (scaled up) and vice versa; with no sync
    observations at all both default to zero — callers are expected to
    treat such models with the bootstrap/perfect-scaling logic of
    Section 3.2 rather than trusting zero-cost communication.
    """
    return _running_fit(observations, gamma).fit()
