"""Per-job Goodput Estimator (Figure 3, steps 2/7/8).

One estimator exists per job.  It owns

* the job's running fit state and fitted throughput parameters per GPU type,
* the job's statistical-efficiency model (one per job, shared across types),
* the profiling mode (Oracle / No-Prof / Bootstrap, Section 5.7).

The central query is :meth:`goodput_batch`: the best achievable goodput for
each of a job's feasible configurations, after optimizing the batch plan
under the job's adaptivity constraints.  Cache misses are evaluated in one
grouped pass: their candidate grids are concatenated and ranked together
(:func:`repro.perf.goodput.best_plans`).  Throughput estimates route through
one dispatch that mirrors Section 3.2: :meth:`JobPerfEstimator._cache_token`
names the branch and :meth:`JobPerfEstimator._branch_model` builds its one
model, which both the batched pass and the scalar re-rank evaluate:

1. Oracle mode, or a fitted model whose communication behaviour has actually
   been observed -> trust the model.
2. Multi-GPU on a type we only have a 1-GPU profile for, while some *other*
   type has multi-GPU experience -> Equation (1) bootstrap.
3. Multi-GPU with no multi-GPU experience anywhere -> the one-time perfect
   scaling assumption (zero communication time).
4. No data at all for a type (No-Prof mode) -> a type-blind prior, so the
   policy can still allocate and learn.

Pollux's type-blind estimator (:class:`repro.schedulers.pollux.PolluxEstimator`)
is the case where every GPU type shares one state and rule 1 holds for
every fit (:meth:`JobPerfEstimator._trusts_fit`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.core.bootstrap import BootstrapModel
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.fitting import FitResult, Observation, RunningFit
from repro.perf.goodput import (BatchPlan, GoodputModel, GridBatch,
                                best_plans, candidate_grid)
from repro.perf.throughput import ThroughputModel, ThroughputParams

#: Type-blind prior used when nothing at all is known (No-Prof cold start).
_PRIOR_PARAMS = ThroughputParams(alpha_c=0.05, beta_c=0.01,
                                 alpha_r=0.01, beta_r=0.001,
                                 alpha_n=0.05, beta_n=0.005)

#: Batch sizes profiled per GPU type during bootstrap (Section 3.2 profiles
#: "typically 10 batchsizes per GPU type").
PROFILE_POINTS_PER_TYPE = 10


@dataclass
class JobConstraints:
    """The submitter-declared and adaptivity-derived limits for one job."""

    min_bsz: int
    max_bsz: int
    min_gpus: int = 1
    max_gpus: int | None = None
    #: strong-scaling / rigid jobs pin the total batch size.
    fixed_total_bsz: int | None = None


@dataclass
class _TypeState:
    """What the estimator knows about one GPU type.

    Accepted reports fold into ``running`` and mark the state ``dirty``;
    :meth:`JobPerfEstimator._fit` refits lazily and replaces the stored
    ``fit`` only when the refit moves it past ``FIT_RTOL``.
    """

    running: RunningFit = field(default_factory=RunningFit)
    fit: FitResult | None = None
    dirty: bool = False
    #: bumped whenever a refit replaces this type's stored ``FitResult``;
    #: cache entries that depended only on this type's fit revalidate
    #: against it.
    epoch: int = 0
    #: per report key ``(gpu_type, num_gpus, num_nodes, local_bsz,
    #: accum_steps)``: recently *accepted* iteration times — the MAD-defense
    #: window new reports are judged against.
    recent: dict[tuple, list[float]] = field(default_factory=dict)


class JobPerfEstimator:
    """Goodput estimator for one job across all GPU types."""

    #: observation-defense knobs (gray-failure hardening; class attrs so
    #: tests and subclasses can tune them).  A report is rejected when it
    #: is non-finite/non-positive, or — once ``OUTLIER_MIN_SAMPLES``
    #: accepted reports exist for the same (gpu_type, batch-plan) key —
    #: when it deviates from the window median by more than
    #: ``OUTLIER_MAD_SIGMAS`` robust z-scores *and* more than
    #: ``OUTLIER_RATIO_CAP``x.  The ratio guard keeps the defense honest
    #: under near-zero observation noise (identical history -> MAD 0 ->
    #: every deviation is "infinite sigmas"): execution-side slowdowns
    #: like a 2x straggler must pass, while an 8x-scaled corrupt report
    #: must not.
    OUTLIER_MIN_SAMPLES = 4
    OUTLIER_MAD_SIGMAS = 6.0
    OUTLIER_RATIO_CAP = 3.0
    OUTLIER_WINDOW = 16

    def __init__(self, model_name: str, constraints: JobConstraints,
                 gpu_types: tuple[str, ...],
                 mode: ProfilingMode = ProfilingMode.BOOTSTRAP):
        self.model_name = model_name
        self.constraints = constraints
        self.gpu_types = gpu_types
        self.mode = mode
        self._types: dict[str, _TypeState] = {t: _TypeState() for t in gpu_types}
        #: per-GPU batch-size caps by type, computed on first use.
        self._local_caps: dict[str, int] = {}
        self.profiling_gpu_seconds = 0.0
        self._efficiency = self._initial_efficiency()
        #: memoized goodput-per-configuration results with the epoch token
        #: they were computed under.  Invalidation is *per GPU type* and
        #: *per fit change*: a refit on one type only stales entries whose
        #: dispatch read that type's fit (or the cross-type bootstrap
        #: state), and only when the refit moved the fit past ``FIT_RTOL``
        #: — a running job re-reporting the same iteration time evicts
        #: nothing.
        self._goodput_cache: dict[
            Configuration, tuple[tuple, BatchPlan | None]] = {}
        #: epoch counters backing cache validation: one per GPU type (in
        #: ``_TypeState``), one global fit epoch (cross-type bootstrap
        #: estimates read *all* types), one efficiency epoch.
        self._obs_epoch = 0
        self._eff_epoch = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: reports the input defense refused to fold into any fit.
        self.rejected_observations = 0

    # -- initialization ----------------------------------------------------

    def _initial_efficiency(self) -> EfficiencyModel:
        true_params = profiles.true_efficiency_params(self.model_name)
        if self.mode is ProfilingMode.NO_PROF:
            # Without profiling there is no gradient-noise estimate yet:
            # start pessimistic (large batches look inefficient) and learn.
            return EfficiencyModel(EfficiencyParams(
                grad_noise_scale=float(true_params.init_batch_size),
                init_batch_size=true_params.init_batch_size))
        return EfficiencyModel(EfficiencyParams(
            grad_noise_scale=true_params.grad_noise_scale,
            init_batch_size=true_params.init_batch_size))

    def profile_initial(self) -> float:
        """Run the initial profiling pass (Figure 3, step 2).

        In Bootstrap mode this measures ~10 batch sizes on one GPU of each
        type (from the ground-truth model — the simulated equivalent of
        running a few mini-batches).  Returns GPU-seconds spent, also
        accumulated on :attr:`profiling_gpu_seconds`.
        """
        if self.mode is not ProfilingMode.BOOTSTRAP:
            return 0.0
        spent = 0.0
        for gpu_type in self.gpu_types:
            cap = self.max_local_bsz(gpu_type)
            if cap < 1:
                continue
            lo = max(1, min(self.constraints.min_bsz, cap))
            sizes = sorted({max(1, int(round(lo * (cap / lo) ** (i / max(1, PROFILE_POINTS_PER_TYPE - 1)))))
                            for i in range(PROFILE_POINTS_PER_TYPE)})
            true_model = ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
            for bsz in sizes:
                iter_time = true_model.iter_time(bsz, 1, 1)
                self.add_observation(Observation(
                    gpu_type=gpu_type, num_nodes=1, num_gpus=1,
                    local_bsz=bsz, accum_steps=1, iter_time=iter_time))
                spent += iter_time
        self.profiling_gpu_seconds += spent
        return spent

    # -- observation intake --------------------------------------------------

    def add_observation(self, obs: Observation) -> bool:
        """Fold one executor report into the fit state.

        Returns True when accepted.  Input defense (gray-failure
        hardening, independent of the health layer): non-finite or
        non-positive iteration times are refused outright, and MAD-based
        outliers against the recent accepted window for the same
        (gpu_type, batch plan) are refused so one corrupt report cannot
        poison a fit.  Rejected reports bump :attr:`rejected_observations`
        and leave the fit untouched.  Accepted ones fold into the type's
        running fit and mark it stale; cache epochs move in :meth:`_fit`,
        if the refit moves the stored fit.
        """
        if obs.gpu_type not in self._types:
            raise KeyError(f"estimator does not track GPU type {obs.gpu_type!r}")
        state = self._types[obs.gpu_type]
        key = (obs.gpu_type, obs.num_gpus, obs.num_nodes, obs.local_bsz,
               obs.accum_steps)
        if not self._observation_credible(state.recent.get(key),
                                          obs.iter_time):
            self.rejected_observations += 1
            return False
        window = state.recent.setdefault(key, [])
        window.append(obs.iter_time)
        if len(window) > self.OUTLIER_WINDOW:
            del window[0]
        state.running.add(obs)
        state.dirty = True
        return True

    def _observation_credible(self, window: list[float] | None,
                              iter_time: float) -> bool:
        if not (isinstance(iter_time, (int, float))
                and math.isfinite(iter_time) and iter_time > 0):
            return False
        if window is None or len(window) < self.OUTLIER_MIN_SAMPLES:
            return True
        median = statistics.median(window)
        mad = statistics.median(abs(x - median) for x in window)
        # Floor the MAD so an identical-history window (MAD 0) does not
        # make every deviation infinitely significant.
        floor = max(mad, 1e-3 * median)
        if abs(iter_time - median) <= self.OUTLIER_MAD_SIGMAS * floor:
            return True
        return (median / self.OUTLIER_RATIO_CAP <= iter_time
                <= median * self.OUTLIER_RATIO_CAP)

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        """Fold a reported gradient-noise-scale measurement into the
        efficiency model (Adaptive Executor reports, Section 3.5)."""
        current = self._efficiency.params.grad_noise_scale
        if abs(observed_noise_scale - current) <= 1e-9 * max(current, 1.0):
            return  # already converged; keep memoized goodputs valid
        self._efficiency.update_noise_scale(observed_noise_scale)
        self._eff_epoch += 1

    def _fit(self, gpu_type: str) -> FitResult | None:
        """The type's stored fit, refitted lazily after new reports.

        A refit whose flags or parameters move past
        :data:`~repro.perf.fitting.FIT_RTOL` of the stored ``FitResult``
        replaces it and moves the type's epoch and the global fit epoch,
        staling the cache entries that read it (per GPU type: entries on
        other types stay warm).  A refit that reproduces the stored fit up
        to float noise keeps it and moves nothing.  The comparison is with
        the *stored* fit, so drift cannot accumulate past the band; which
        fit is stored therefore depends on when refits ran, and it is
        pickled with the estimator so resumes stay identical.
        """
        state = self._types[gpu_type]
        if state.dirty:
            state.dirty = False
            fit = state.running.fit()
            if not fit.reproduces(state.fit):
                state.fit = fit
                state.epoch += 1
                self._obs_epoch += 1
        return state.fit

    # -- knowledge queries ---------------------------------------------------

    def max_local_bsz(self, gpu_type: str) -> int:
        """Per-GPU batch-size cap on this type (memory limit).

        Discovered during the profiling pass (profiling increases batch size
        until it hits GPU memory limits — Section 3.2), so it is known in
        every mode.
        """
        cap = self._local_caps.get(gpu_type)
        if cap is None:
            cap = profiles.max_local_bsz(self.model_name, gpu_type)
            cap = min(cap, self.constraints.max_bsz) if cap else 0
            self._local_caps[gpu_type] = cap
        return cap

    # -- throughput dispatch --------------------------------------------------

    def _trusts_fit(self, fit: FitResult, num_gpus: int) -> bool:
        """Whether ``fit`` is evaluated as is at ``num_gpus`` GPUs: at one
        GPU, or once its communication behaviour has been observed.  A
        multi-GPU query on a 1-GPU-only fit goes to Equation (1) or the
        perfect-scaling assumption instead."""
        return num_gpus == 1 or fit.has_multi_gpu

    def throughput(self, gpu_type: str, local_bsz: int, num_gpus: int,
                   num_nodes: int, accum_steps: int = 1) -> float:
        """Estimated samples/second on a concrete execution plan."""
        model = self._branch_model(
            self._cache_token(gpu_type, num_gpus)[0], gpu_type)
        return model.throughput(local_bsz, num_gpus, num_nodes, accum_steps)

    def _branch_model(self, branch: str, gpu_type: str,
                      ) -> ThroughputModel | BootstrapModel:
        """The throughput model of one dispatch ``branch`` (the first field
        of :meth:`_cache_token`) on one GPU type.  None of the routing
        conditions depend on the batch plan, so one model answers every
        candidate of the branch, scalar or batched."""
        if branch == "oracle":
            return ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
        if branch == "prior":
            return ThroughputModel(_PRIOR_PARAMS)
        own = ThroughputModel(self._fit(gpu_type).params)
        if branch == "fit":
            return own
        return BootstrapModel(own, [
            ThroughputModel(fit.params)
            for fit in map(self._fit, self.gpu_types)
            if fit is not None and fit.has_single_gpu and fit.has_multi_gpu])

    # -- goodput -------------------------------------------------------------

    def _cache_token(self, gpu_type: str, num_gpus: int) -> tuple:
        """The epochs a cached plan for (type, shape) depends on.

        A cached entry is valid while its token matches the current one.
        Epochs move only when a refit changes a ``FitResult`` (see
        :meth:`_fit`), and the token's first field names the throughput
        dispatch branch the plan was computed on:

        * Oracle estimates read only the (immutable) ground truth, so they
          revalidate on the efficiency epoch alone;
        * trusted fits read one type's fit, so a fit change on another GPU
          type leaves them warm (the per-type invalidation this cache
          exists for);
        * bootstrapped / perfect-scaling estimates read *all* types (the
          Equation (1) reference can change with any fit), so they key on
          the global fit epoch — after refreshing every type's lazy fit,
          or a stale fit elsewhere would leave that epoch behind.
        """
        if self.mode is ProfilingMode.ORACLE:
            return ("oracle", self._eff_epoch)
        state = self._types[gpu_type]
        fit = self._fit(gpu_type)
        if fit is None:
            return ("prior", gpu_type, state.epoch, self._eff_epoch)
        if self._trusts_fit(fit, num_gpus):
            return ("fit", gpu_type, state.epoch, self._eff_epoch)
        for other in self.gpu_types:
            self._fit(other)
        return ("boot", self._obs_epoch, self._eff_epoch)

    def goodput(self, config: Configuration) -> float:
        """Best achievable goodput for a configuration (0 if infeasible)."""
        plan = self.best_plans([config])[0]
        return plan.goodput if plan is not None else 0.0

    def goodput_batch(self, configs: list[Configuration]) -> np.ndarray:
        """Goodput for every configuration in one call — fills a whole
        utility row of the policy's matrix at once."""
        return np.fromiter(
            (plan.goodput if plan is not None else 0.0
             for plan in self.best_plans(configs)),
            dtype=float, count=len(configs))

    def best_plan(self, config: Configuration) -> BatchPlan | None:
        """Optimized batch plan for a configuration under the job's limits."""
        return self.best_plans([config])[0]

    def best_plans(self, configs: list[Configuration],
                   ) -> list[BatchPlan | None]:
        """Optimized batch plans for many configurations.

        Hits cost one dict probe; all misses share one grouped pass
        (:meth:`_evaluate`).
        """
        plans: list[BatchPlan | None] = []
        misses: list[tuple[int, Configuration, tuple]] = []
        cache = self._goodput_cache
        for i, config in enumerate(configs):
            token = self._cache_token(config.gpu_type, config.num_gpus)
            cached = cache.get(config)
            if cached is not None and cached[0] == token:
                plans.append(cached[1])
            else:
                misses.append((i, config, token))
                plans.append(None)
        self.cache_hits += len(plans) - len(misses)
        self.cache_misses += len(misses)
        if misses:
            fresh = self._evaluate([(config, token[0])
                                    for _, config, token in misses])
            for (i, config, token), plan in zip(misses, fresh):
                cache[config] = (token, plan)
                plans[i] = plan
        return plans

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of goodput queries answered from the per-type cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def _evaluate(self, queries: list[tuple[Configuration, str]],
                  ) -> list[BatchPlan | None]:
        """Best plans for ``(configuration, dispatch branch)`` queries in
        one grouped pass.

        The queries' candidate grids are concatenated in (GPU type, branch)
        groups, each group's throughput comes from one
        :meth:`_branch_model`, and :func:`~repro.perf.goodput.best_plans`
        ranks every grid at once, re-ranking shortlists on the same models.
        """
        limits = self.constraints
        groups: dict[tuple[str, str], list[int]] = {}
        grids = {}
        for i, (config, branch) in enumerate(queries):
            grid = candidate_grid(
                config.num_gpus,
                max_local_bsz=self.max_local_bsz(config.gpu_type),
                max_total_bsz=limits.max_bsz,
                min_total_bsz=limits.min_bsz,
                fixed_total_bsz=limits.fixed_total_bsz)
            if grid is not None:
                grids[i] = grid
                groups.setdefault((config.gpu_type, branch), []).append(i)
        plans: list[BatchPlan | None] = [None] * len(queries)
        if not grids:
            return plans
        order = [i for members in groups.values() for i in members]
        batch = GridBatch([(queries[i][0].num_gpus, queries[i][0].num_nodes)
                           for i in order], [grids[i] for i in order])
        pieces = []
        models: list[GoodputModel] = []
        first = 0
        for (gpu_type, branch), members in groups.items():
            model = GoodputModel(self._branch_model(branch, gpu_type),
                                 self._efficiency)
            last = first + len(members)
            pieces.append(model.throughput_model.throughput_batch(
                *batch.columns(first, last)))
            models += [model] * len(members)
            first = last
        found = best_plans(batch, np.concatenate(pieces), self._efficiency,
                           models)
        for i, plan in zip(order, found):
            plans[i] = plan
        return plans

    @property
    def efficiency_model(self) -> EfficiencyModel:
        return self._efficiency

