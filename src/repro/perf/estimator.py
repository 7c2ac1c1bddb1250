"""Per-job Goodput Estimator (Figure 3, steps 2/7/8).

One estimator exists per job.  It owns

* the job's observations and fitted throughput parameters per GPU type,
* the job's statistical-efficiency model (one per job, shared across types),
* the profiling mode (Oracle / No-Prof / Bootstrap, Section 5.7).

The central query is :meth:`goodput_batch`: the best achievable goodput for
each of a job's feasible configurations, after optimizing the batch plan
under the job's adaptivity constraints.  Cache misses are evaluated in one
grouped pass: their candidate grids are concatenated and ranked together
(:func:`repro.perf.goodput.best_plans`).  Throughput estimates route through
a dispatch that mirrors Section 3.2:

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

from repro.core.bootstrap import bootstrap_throughput, pick_reference_type
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.fitting import FitResult, Observation, fit_throughput_params
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
    """What the estimator knows about one GPU type."""

    observations: list[Observation] = field(default_factory=list)
    fit: FitResult | None = None
    dirty: bool = False
    #: bumped whenever a refit changes this type's ``FitResult``; cache
    #: entries that depended only on this type's fit revalidate against it.
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
        self.profiling_gpu_seconds = 0.0
        self._efficiency = self._initial_efficiency()
        #: memoized goodput-per-configuration results with the epoch token
        #: they were computed under.  Invalidation is *per GPU type* and
        #: *per fit change*: a refit on one type only stales entries whose
        #: dispatch read that type's fit (or the cross-type bootstrap
        #: state), and only when the refit actually changed the fit — a
        #: running job re-reporting the same iteration time evicts nothing.
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
        and leave the fit untouched.  Accepted ones only mark the type's fit
        stale; cache epochs move in :meth:`_fit`, if the refit differs.
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
        state.observations.append(obs)
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
        """The type's fit, refitted lazily after new observations.

        A refit that changes the ``FitResult`` moves the type's epoch and
        the global fit epoch, staling the cache entries that read it (per
        GPU type: entries on other types stay warm).  A refit that
        reproduces the stored fit bit for bit moves nothing.
        """
        state = self._types[gpu_type]
        if state.dirty and state.observations:
            state.dirty = False
            fit = fit_throughput_params(state.observations)
            if fit != state.fit:
                state.fit = fit
                state.epoch += 1
                self._obs_epoch += 1
        return state.fit

    # -- knowledge queries ---------------------------------------------------

    def has_profile(self, gpu_type: str) -> bool:
        return bool(self._types[gpu_type].observations)

    def max_local_bsz(self, gpu_type: str) -> int:
        """Per-GPU batch-size cap on this type (memory limit).

        Discovered during the profiling pass (profiling increases batch size
        until it hits GPU memory limits — Section 3.2), so it is known in
        every mode.
        """
        cap = profiles.max_local_bsz(self.model_name, gpu_type)
        return min(cap, self.constraints.max_bsz) if cap else 0

    # -- throughput dispatch --------------------------------------------------

    def _trusts_fit(self, fit: FitResult, num_gpus: int) -> bool:
        """Whether ``fit`` is evaluated as is at ``num_gpus`` GPUs: at one
        GPU, or once its communication behaviour has been observed.  A
        multi-GPU query on a 1-GPU-only fit goes to Equation (1) or the
        perfect-scaling assumption instead."""
        return num_gpus == 1 or fit.has_multi_gpu

    def _single_gpu_xput(self, gpu_type: str, local_bsz: int) -> float | None:
        """Estimated 1-GPU throughput on a type, if any data exists."""
        fit = self._fit(gpu_type)
        if fit is None or not fit.has_single_gpu:
            return None
        model = ThroughputModel(fit.params)
        return model.throughput(local_bsz, 1, 1)

    def throughput(self, gpu_type: str, local_bsz: int, num_gpus: int,
                   num_nodes: int, accum_steps: int = 1) -> float:
        """Estimated samples/second on a concrete execution plan."""
        if self.mode is ProfilingMode.ORACLE:
            true_model = ThroughputModel(
                profiles.true_throughput_params(self.model_name, gpu_type))
            return true_model.throughput(local_bsz, num_gpus, num_nodes,
                                         accum_steps)

        fit = self._fit(gpu_type)
        if fit is not None and self._trusts_fit(fit, num_gpus):
            return ThroughputModel(fit.params).throughput(
                local_bsz, num_gpus, num_nodes, accum_steps)

        if fit is not None and fit.has_single_gpu:
            # Multi-GPU on a type we have only profiled at 1 GPU.
            estimate = self._bootstrap_multi_gpu(
                gpu_type, local_bsz, num_gpus, num_nodes, accum_steps)
            if estimate is not None:
                return estimate
            # Perfect-scaling assumption (Section 3.2): N replicas run at
            # N x the single-replica rate (accumulation scales samples and
            # time equally, so the rate is unchanged by accum_steps).
            single = self._single_gpu_xput(gpu_type, local_bsz)
            assert single is not None
            return single * num_gpus

        # Nothing known for this type (No-Prof cold start): type-blind prior.
        return ThroughputModel(_PRIOR_PARAMS).throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)

    def _throughput_batch(self, branch: str, gpu_type: str,
                          local: np.ndarray, gpus: np.ndarray,
                          nodes: np.ndarray,
                          accums: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`throughput` over candidates of any shapes on
        one GPU type that share a dispatch ``branch`` (the first field of
        their :meth:`_cache_token`).

        The branch is the scalar path's because none of the routing
        conditions depend on the batch plan; only the Equation (1)
        reference-type choice varies per candidate, and the bootstrap
        branch replicates that selection elementwise.
        """
        if branch == "oracle":
            params = profiles.true_throughput_params(self.model_name,
                                                     gpu_type)
        elif branch == "fit":
            params = self._fit(gpu_type).params
        elif branch == "prior":
            params = _PRIOR_PARAMS
        else:
            estimate = self._bootstrap_multi_gpu_batch(
                gpu_type, local, gpus, nodes, accums)
            if estimate is not None:
                return estimate
            # Perfect-scaling assumption: N x the single-replica rate at
            # accumulation 1 (matching the scalar path exactly).
            singles = ThroughputModel(self._fit(gpu_type).params) \
                .throughput_batch(local, 1, 1, 1)
            return singles * gpus
        return ThroughputModel(params).throughput_batch(local, gpus, nodes,
                                                        accums)

    def _bootstrap_multi_gpu(self, gpu_type: str, local_bsz: int,
                             num_gpus: int, num_nodes: int,
                             accum_steps: int) -> float | None:
        """Equation (1): rescale a multi-GPU-experienced reference type."""
        experience: dict[str, bool] = {}
        singles: dict[str, float] = {}
        for t in self.gpu_types:
            fit = self._fit(t)
            experience[t] = fit is not None and fit.has_multi_gpu
            if fit is not None and fit.has_single_gpu:
                singles[t] = ThroughputModel(fit.params).throughput(
                    local_bsz, 1, 1)
        reference = pick_reference_type(experience, singles)
        if reference is None or gpu_type not in singles:
            return None
        ref_multi = ThroughputModel(self._fit(reference).params).throughput(
            local_bsz, num_gpus, num_nodes, accum_steps)
        return bootstrap_throughput(singles[gpu_type], singles[reference],
                                    ref_multi)

    def _bootstrap_multi_gpu_batch(self, gpu_type: str, local: np.ndarray,
                                   gpus: np.ndarray, nodes: np.ndarray,
                                   accums: np.ndarray) -> np.ndarray | None:
        """Vectorized Equation (1): per candidate, rescale the fastest
        multi-GPU-experienced reference type (the scalar path's
        ``pick_reference_type``, applied elementwise)."""
        own = self._fit(gpu_type)
        refs = [ThroughputModel(fit.params)
                for fit in map(self._fit, self.gpu_types)
                if fit is not None and fit.has_single_gpu
                and fit.has_multi_gpu]
        if not refs or own is None or not own.has_single_gpu:
            return None
        own_single = ThroughputModel(own.params).throughput_batch(
            local, 1, 1, 1)
        # Reference selection mirrors pick_reference_type: the experienced
        # type with the largest positive 1-GPU throughput, first listed
        # winning ties.
        for i, model in enumerate(refs):
            single = model.throughput_batch(local, 1, 1, 1)
            multi = model.throughput_batch(local, gpus, nodes, accums)
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
        # Points where no experienced type has positive 1-GPU throughput
        # fall back to perfect scaling, exactly like the scalar dispatch.
        fallback = own_single * gpus
        return np.where(np.isfinite(ref_single) & (ref_single > 0),
                        estimate, fallback)

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
        groups, throughput is evaluated with one dispatch per group, and
        :func:`~repro.perf.goodput.best_plans` ranks every grid at once.
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
        first = 0
        for (gpu_type, branch), members in groups.items():
            pieces.append(self._throughput_batch(
                branch, gpu_type,
                *batch.columns(first, first + len(members))))
            first += len(members)
        models = {gpu_type: GoodputModel(_ThroughputAdapter(self, gpu_type),
                                         self._efficiency)
                  for gpu_type, _ in groups}
        found = best_plans(batch, np.concatenate(pieces), self._efficiency,
                           [models[queries[i][0].gpu_type] for i in order])
        for i, plan in zip(order, found):
            plans[i] = plan
        return plans

    @property
    def efficiency_model(self) -> EfficiencyModel:
        return self._efficiency


class _ThroughputAdapter:
    """Presents the estimator's scalar dispatch for one GPU type as a
    ThroughputModel-like object, so :class:`~repro.perf.goodput.GoodputModel`
    can re-evaluate shortlisted plans on it."""

    def __init__(self, estimator: JobPerfEstimator, gpu_type: str):
        self._estimator = estimator
        self._gpu_type = gpu_type

    def throughput(self, local_bsz: float, num_gpus: int, num_nodes: int,
                   accum_steps: int = 1) -> float:
        return self._estimator.throughput(
            self._gpu_type, int(local_bsz), num_gpus, num_nodes, accum_steps)
