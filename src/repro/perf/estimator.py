"""Per-job Goodput Estimator (Figure 3, steps 2/7/8).

One estimator exists per job.  It owns

* the job's running fit state and fitted throughput parameters per GPU type,
* the job's statistical-efficiency model (one per job, shared across types),
* the profiling mode (Oracle / No-Prof / Bootstrap, Section 5.7).

The central query is the best batch plan, and its goodput, for each of a
job's feasible configurations under the job's adaptivity constraints.
:func:`plan_requests` answers it for many estimators at once, and
:func:`goodput_rows` is how Sia, the rigid baselines and Gavel rate a
whole round in one call.  Plans live in one place, a scheduler's plan memo
(:data:`PlanMemo`), keyed by everything a plan reads.  Each estimator
probes the memo, and then the misses of every job share one pass, in which
their candidate grids are concatenated, rated on per-candidate model
parameters and ranked together (:func:`repro.perf.goodput.best_plans`).
:meth:`JobPerfEstimator.best_plans` (behind ``goodput_batch``,
``best_plan`` and ``goodput``) is the one-estimator case.  Throughput
estimates route through one dispatch that mirrors Section 3.2:
:meth:`JobPerfEstimator._branch` names the branch,
:meth:`JobPerfEstimator._branch_params` reads its parameters (the memo key
holds them) and :meth:`JobPerfEstimator._branch_model` builds its one
model, whose parameters the batched pass reads and which the scalar
re-rank evaluates:

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
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.bootstrap import BootstrapModel, bootstrap_rows
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.fitting import FitResult, Observation, RunningFit
from repro.perf.goodput import (BatchPlan, GoodputModel, Grid, GridBatch,
                                best_plans, candidate_grid)
from repro.perf.throughput import (ThroughputModel, ThroughputParams,
                                   throughput_rows)

#: Type-blind prior used when nothing at all is known (No-Prof cold start).
_PRIOR_PARAMS = ThroughputParams(alpha_c=0.05, beta_c=0.01,
                                 alpha_r=0.01, beta_r=0.001,
                                 alpha_n=0.05, beta_n=0.005)

#: Estimator work done in this process: plan memo hits and misses of
#: :func:`plan_requests` (every policy's round pass; the per-job lookups
#: of ``best_plans`` are not counted here, so they pay nothing for it),
#: lazy refits, and the refits that ``moved`` a stored fit.  Only deltas
#: mean anything; each ``goodput_eval`` span reports the work done inside
#: it (:meth:`repro.schedulers.base.Scheduler.goodput_eval`).
WORK = dict.fromkeys(("hits", "misses", "refits", "moved"), 0)

#: A plan memo, in two levels: a plan's inputs but its shape
#: (:meth:`JobPerfEstimator._plan_key`) -> a row from ``(num_gpus,
#: num_nodes)`` to the plan, or None for a configuration with no candidate
#: grid.  A probe hashes one row key per (GPU type, 1-GPU or multi-GPU)
#: group, which the estimator keeps until its evidence changes, and one
#: small int key per configuration.  Each scheduler owns one
#: per run (:attr:`repro.schedulers.base.Scheduler.plan_memo`).
PlanMemo = dict[tuple, dict[tuple, BatchPlan | None]]

#: Plans (:func:`memo_size`) at which a plan memo is cleared, as
#: ``candidate_grid`` clears its grid cache.  A seed-1 run of any
#: benchmark workload stays under 500.
PLAN_MEMO_MAX = 4096

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

    Accepted reports fold into ``running`` and mark the state ``dirty``
    when they move one of its means; :meth:`JobPerfEstimator._fit` refits
    lazily and replaces the stored ``fit`` only when the refit moves it
    past ``FIT_RTOL``.
    """

    running: RunningFit = field(default_factory=RunningFit)
    fit: FitResult | None = None
    dirty: bool = False
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
        #: plan memo hits and misses of this estimator's probes.
        self.cache_hits = 0
        self.cache_misses = 0
        #: reports the input defense refused to fold into any fit.
        self.rejected_observations = 0
        #: per (GPU type, 1-GPU?) group: the ``(branch, row key)`` last
        #: computed, held until evidence that can change it arrives
        #: (:meth:`_probe`).  Not pickled (:meth:`__getstate__`).
        self._slots: dict[tuple[str, bool], tuple[str, tuple]] = {}
        #: the last probe that hit every plan (:meth:`_probe`); not pickled.
        self._row: tuple | None = None

    def __getstate__(self) -> dict:
        """Everything but the key slots and the saved row, so an estimator
        pickles to the same bytes whether or not it has been probed; a
        resumed run recomputes the same keys at its first probe."""
        state = self.__dict__.copy()
        del state["_slots"], state["_row"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._slots, self._row = {}, None

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
        running fit, and mark it stale if they moved one of its means;
        :meth:`_fit` refits it when it is next read.
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
        if state.running.add(obs):
            state.dirty = True
            self._slots.clear()
            self._row = None
        return True

    def _observation_credible(self, window: list[float] | None,
                              iter_time: float) -> bool:
        if not (isinstance(iter_time, (int, float))
                and math.isfinite(iter_time) and iter_time > 0):
            return False
        if window is None or len(window) < self.OUTLIER_MIN_SAMPLES:
            return True
        ordered = sorted(window)
        median = _middle(ordered)
        mad = _middle(sorted([abs(x - median) for x in ordered]))
        # Floor the MAD so an identical-history window (MAD 0) does not
        # make every deviation infinitely significant.
        floor = max(mad, 1e-3 * median)
        if abs(iter_time - median) <= self.OUTLIER_MAD_SIGMAS * floor:
            return True
        return (median / self.OUTLIER_RATIO_CAP <= iter_time
                <= median * self.OUTLIER_RATIO_CAP)

    def update_gradient_stats(self, observed_noise_scale: float) -> None:
        """Fold a reported gradient-noise-scale measurement into the
        efficiency model (Adaptive Executor reports, Section 3.5).  This is
        the one writer of the model's values in the package; every row key
        holds them, so a move empties every key slot."""
        current = self._efficiency.params.grad_noise_scale
        if abs(observed_noise_scale - current) <= 1e-9 * max(current, 1.0):
            return  # already converged; keep the memoized plans' keys
        self._efficiency.update_noise_scale(observed_noise_scale)
        self._slots.clear()
        self._row = None

    def _fit(self, gpu_type: str) -> FitResult | None:
        """The type's stored fit, refitted lazily after new reports.

        A refit whose flags or parameters move past
        :data:`~repro.perf.fitting.FIT_RTOL` of the stored ``FitResult``
        replaces it, and so changes the plan keys that read it
        (:meth:`_plan_key`; plans on other types keep theirs).  A refit
        that reproduces the stored fit up to float noise keeps it, so every
        key stays.  The comparison is with the *stored* fit, so drift
        cannot accumulate past the band; which fit is stored therefore
        depends on when refits ran, and it is pickled with the estimator
        so resumes stay identical.
        """
        state = self._types[gpu_type]
        if state.dirty:
            state.dirty = False
            WORK["refits"] += 1
            fit = state.running.fit()
            if not fit.reproduces(state.fit):
                WORK["moved"] += 1
                state.fit = fit
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
        perfect-scaling assumption instead.

        Overrides may read ``num_gpus`` only through ``num_gpus == 1``:
        :meth:`_probe` computes one :meth:`_branch` per GPU type and
        GPU-count group (one GPU, or more) and reuses it across the
        group."""
        return num_gpus == 1 or fit.has_multi_gpu

    def throughput(self, gpu_type: str, local_bsz: int, num_gpus: int,
                   num_nodes: int, accum_steps: int = 1) -> float:
        """Estimated samples/second on a concrete execution plan."""
        model = self._branch_model(self._branch(gpu_type, num_gpus),
                                   gpu_type)
        return model.throughput(local_bsz, num_gpus, num_nodes, accum_steps)

    def _branch(self, gpu_type: str, num_gpus: int) -> str:
        """The throughput dispatch branch of a (GPU type, GPU count):
        ``oracle`` (the ground truth), ``prior`` (no fit yet), ``fit`` (a
        trusted fit) or ``boot`` (Equation (1), else perfect scaling).
        Reading the type's fit refits it if it is stale."""
        if self.mode is ProfilingMode.ORACLE:
            return "oracle"
        fit = self._fit(gpu_type)
        if fit is None:
            return "prior"
        return "fit" if self._trusts_fit(fit, num_gpus) else "boot"

    def _branch_params(self, branch: str, gpu_type: str,
                       ) -> list[ThroughputParams]:
        """The throughput parameters one dispatch ``branch`` reads on one
        GPU type: the model's own, then, for ``boot``, those of each
        Equation (1) reference (every type with single- and multi-GPU
        data, in listing order).  ``boot`` reads every type's fit, so it
        refits every stale type, in listing order."""
        if branch == "oracle":
            return [profiles.true_throughput_params(self.model_name,
                                                    gpu_type)]
        if branch == "prior":
            return [_PRIOR_PARAMS]
        own = self._fit(gpu_type).params
        if branch == "fit":
            return [own]
        return [own, *[fit.params for fit in map(self._fit, self.gpu_types)
                       if fit is not None and fit.has_single_gpu
                       and fit.has_multi_gpu]]

    def _branch_model(self, branch: str, gpu_type: str,
                      ) -> ThroughputModel | BootstrapModel:
        """The throughput model of one dispatch ``branch`` on one GPU type.
        None of the routing conditions depend on the batch plan, so one
        model answers every candidate of the branch, scalar or batched."""
        own, *refs = map(ThroughputModel,
                         self._branch_params(branch, gpu_type))
        return BootstrapModel(own, refs) if branch == "boot" else own

    # -- goodput -------------------------------------------------------------

    def _plan_key(self, branch: str, gpu_type: str) -> tuple:
        """The row key of a :data:`PlanMemo`: everything a plan of
        ``branch`` on ``gpu_type`` reads but its shape.  That is whether the
        branch is ``boot`` (Equation (1) with no reference and a trusted
        fit without sync cost hold the same parameters), the branch's
        parameters as value tuples in listing order (the first listed
        reference wins ties), the efficiency model's current values (never
        the mutable object), and the batch limits.  It holds
        no estimator, so a finished job's estimator is still freed."""
        values = self._efficiency.params
        limits = self.constraints
        return (branch == "boot",
                tuple(map(_PARAM_VALUES,
                          self._branch_params(branch, gpu_type))),
                values.grad_noise_scale, values.init_batch_size,
                self.max_local_bsz(gpu_type),
                limits.max_bsz, limits.min_bsz, limits.fixed_total_bsz)

    def goodput(self, config: Configuration,
                memo: PlanMemo | None = None) -> float:
        """Best achievable goodput for a configuration (0 if infeasible)."""
        plan = self.best_plans([config], memo)[0]
        return plan.goodput if plan is not None else 0.0

    def goodput_batch(self, configs: list[Configuration],
                      memo: PlanMemo | None = None) -> np.ndarray:
        """Goodput for every configuration in one call — fills a whole
        utility row of the policy's matrix at once."""
        return plan_goodputs(self.best_plans(configs, memo))

    def best_plan(self, config: Configuration,
                  memo: PlanMemo | None = None) -> BatchPlan | None:
        """Optimized batch plan for a configuration under the job's limits."""
        return self.best_plans([config], memo)[0]

    def best_plans(self, configs: list[Configuration],
                   memo: PlanMemo | None = None,
                   ) -> list[BatchPlan | None]:
        """Optimized batch plans for many configurations, answered from
        and added to ``memo`` (None: a memo that is thrown away): the
        one-estimator case of :func:`plan_requests`, inlined because the
        per-job plan lookups of
        :meth:`~repro.schedulers.base.Scheduler.record_estimates`, nearly
        all hits, would pay for building its request list on every
        call."""
        memo = {} if memo is None else memo
        misses: list[_Miss] = []
        plans = self._probe(configs, misses, memo)
        if misses:
            _plan_misses(misses, memo)
        return plans

    def _probe(self, configs: list[Configuration], misses: list[_Miss],
               memo: PlanMemo) -> list[BatchPlan | None]:
        """The plan ``memo`` holds for every configuration, with ``None``
        in place of each miss, which is appended to ``misses`` for
        :func:`_plan_misses` to fill.

        Consecutive configurations of one (GPU type, 1-GPU or multi-GPU)
        group share one branch and one :meth:`_plan_key`, which the
        group's slot holds from the probe that computes them until
        evidence that can change them arrives.  Callers list each group's
        configurations together (Sia's configuration set is sorted by
        type, then GPU count), so a probe reads each slot once and
        computes at most one key per group; the ``boot`` branch's
        all-type refresh runs once per computed key.

        A key moves only with a fit it reads or with the efficiency
        values: fits move only in refits of dirty types, and caps and
        limits are fixed at construction.  So a report that marks a type
        dirty (:meth:`add_observation`) and a noise-scale move
        (:meth:`update_gradient_stats`) empty every slot, and a slot is
        held only if every type it reads is clean.  Skipping a held
        slot's ``_fit`` calls therefore skips only no-op reads, and lazy
        refits run in the order one key per configuration would run
        them.

        A probe that hits every plan saves them for the next probe of the
        same ``configs`` object on the same ``memo``: kept until the slots
        empty or ``memo`` loses the probe's last row (a clear drops all)."""
        saved = self._row
        if saved is not None and saved[0] is configs and saved[1] is memo \
                and memo.get(saved[2]) is saved[3]:
            self.cache_hits += len(configs)
            return list(saved[4])
        plans: list[BatchPlan | None] = []
        slots = self._slots
        last_type = last_single = key = row = None
        missed = len(misses)
        for config in configs:
            gpu_type, single = config.gpu_type, config.num_gpus == 1
            if gpu_type != last_type or single is not last_single:
                slot = slots.get((gpu_type, single))
                if slot is None:
                    branch = self._branch(gpu_type, config.num_gpus)
                    slot = slots[gpu_type, single] = (
                        branch, self._plan_key(branch, gpu_type))
                branch, key = slot
                row = memo.get(key, {})
                last_type, last_single = gpu_type, single
            plan = row.get((config.num_gpus, config.num_nodes), _ABSENT)
            if plan is _ABSENT:
                misses.append(_Miss(self, plans, len(plans), config,
                                    branch, key))
                plan = None
            plans.append(plan)
        missed = len(misses) - missed
        self.cache_hits += len(configs) - missed
        self.cache_misses += missed
        if not missed:
            self._row = (configs, memo, key, row, tuple(plans))
        return plans

    @property
    def efficiency_model(self) -> EfficiencyModel:
        """The job's efficiency model, to read.  Move its noise scale only
        through :meth:`update_gradient_stats`: a direct
        ``update_noise_scale`` would leave key slots holding the old
        values."""
        return self._efficiency


def _middle(ordered: list[float]) -> float:
    """The median of a sorted list, by ``statistics.median``'s rule: the
    middle element, or the mean of the two middle ones."""
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


class _Miss(NamedTuple):
    """One plan memo miss, and where its plan goes."""

    estimator: JobPerfEstimator
    #: the plan list of the miss's request, and the miss's index in it.
    plans: list
    index: int
    config: Configuration
    branch: str
    #: the memo row the plan goes to (:meth:`JobPerfEstimator._plan_key`).
    key: tuple


#: The parameters of a missing Equation (1) reference slot.  They are NaN,
#: so the slot's 1-GPU throughput is NaN and it never wins
#: (:func:`~repro.core.bootstrap.bootstrap_rows`).
_NO_REFERENCE = ThroughputModel(ThroughputParams(
    *[math.nan] * 6, gamma=math.nan))


def plan_goodputs(plans: list[BatchPlan | None]) -> np.ndarray:
    """The goodput of every plan, 0 where there is none."""
    return np.fromiter(
        (plan.goodput if plan is not None else 0.0 for plan in plans),
        dtype=float, count=len(plans))


def goodput_rows(requests: list[tuple[object, list[Configuration]]],
                 span=None, memo: PlanMemo | None = None,
                 ) -> tuple[list[np.ndarray], list[list[BatchPlan | None]]]:
    """The goodput row of every ``(estimator, configurations)`` request,
    and the plans each row was rated from, both in request order.  The
    rows of every :class:`JobPerfEstimator` come from one
    :func:`plan_requests` pass (``span`` and ``memo`` as there); a hybrid
    estimator answers with its own ``goodput_batch``, and its plans are
    None, as its ``best_plan`` says."""
    rows: list[np.ndarray | None] = [None] * len(requests)
    plans: list[list[BatchPlan | None] | None] = [None] * len(requests)
    ours = [i for i, (estimator, _) in enumerate(requests)
            if isinstance(estimator, JobPerfEstimator)]
    for i, row_plans in zip(ours, plan_requests([requests[i] for i in ours],
                                                span, memo)):
        rows[i] = plan_goodputs(row_plans)
        plans[i] = row_plans
    for i, (estimator, configs) in enumerate(requests):
        if rows[i] is None:
            rows[i] = estimator.goodput_batch(configs)
            plans[i] = [None] * len(configs)
    return rows, plans


def plan_requests(requests: list[tuple[JobPerfEstimator,
                                       list[Configuration]]],
                  span=None, memo: PlanMemo | None = None,
                  ) -> list[list[BatchPlan | None]]:
    """Best batch plans for many ``(estimator, configurations)`` requests:
    one goodput pass for a whole scheduling round.

    Each estimator probes ``memo`` (a scheduler's :data:`PlanMemo`; None
    behaves as an empty memo that is thrown away) first, counting its own
    hits and misses, and no batch state is built unless something missed;
    then every miss of every request is planned together by
    :func:`_plan_misses`, which adds the plans to ``memo``.  Each plan
    equals the one the estimator alone would return.  ``span``, when
    given, is annotated with ``planned`` (misses planned on a candidate
    grid) and ``candidates`` (grid points rated).
    """
    memo = {} if memo is None else memo
    misses: list[_Miss] = []
    results = [estimator._probe(configs, misses, memo)
               for estimator, configs in requests]
    WORK["hits"] += sum(map(len, results)) - len(misses)
    WORK["misses"] += len(misses)
    segments = candidates = 0
    if misses:
        segments, candidates = _plan_misses(misses, memo)
    if span is not None:
        span.annotate(planned=segments, candidates=candidates)
    return results


#: The values of a ``ThroughputParams``, as one tuple.
_PARAM_VALUES = operator.attrgetter("alpha_c", "beta_c", "alpha_r",
                                    "beta_r", "alpha_n", "beta_n", "gamma")

#: Marks a plan a memo row does not hold (a held plan may be None).
_ABSENT = object()


def memo_size(memo: PlanMemo) -> int:
    """The number of plans ``memo`` holds."""
    return sum(map(len, memo.values()))


def _plan_misses(misses: list[_Miss], memo: PlanMemo) -> tuple[int, int]:
    """Plan every miss in one pass, store each plan in its request's plan
    list and in ``memo``, and return the number of segments and of
    candidates rated.

    The candidate grids of the misses become segments of one
    :class:`~repro.perf.goodput.GridBatch`: those on a
    :class:`~repro.perf.throughput.ThroughputModel` (oracle, trusted fit,
    prior) first, then those on a
    :class:`~repro.core.bootstrap.BootstrapModel`, so each kind is one
    contiguous slice.  Model parameters are per segment: each becomes a
    per-candidate column with one ``np.repeat``, and the sync time is the
    scalar :meth:`~repro.perf.throughput.ThroughputModel.sync_time` of the
    segment's shape.  Goodput multiplies throughput by each estimator's own
    efficiency, and :func:`~repro.perf.goodput.best_plans` ranks every
    segment, re-ranking its shortlist on the segment's scalar model.  A
    miss with no candidate grid is memoized as None.  The pass adds its
    plans to ``memo`` afterwards, so a memo only answers later passes; a
    memo that reaches :data:`PLAN_MEMO_MAX` plans is cleared.
    """
    plain: list[tuple[_Miss, Grid, GoodputModel]] = []
    boot: list[tuple[_Miss, Grid, GoodputModel]] = []
    # One goodput model per (estimator, GPU type, branch) of the pass.
    models: dict[tuple, GoodputModel] = {}
    for miss in misses:
        estimator, _, _, config, branch, _ = miss
        gpu_type, limits = config.gpu_type, estimator.constraints
        grid = candidate_grid(
            config.num_gpus, max_local_bsz=estimator.max_local_bsz(gpu_type),
            max_total_bsz=limits.max_bsz, min_total_bsz=limits.min_bsz,
            fixed_total_bsz=limits.fixed_total_bsz)
        if grid is None:
            continue
        model = models.get((estimator, gpu_type, branch))
        if model is None:
            model = models[estimator, gpu_type, branch] = GoodputModel(
                estimator._branch_model(branch, gpu_type),
                estimator._efficiency)
        (boot if branch == "boot" else plain).append((miss, grid, model))
    segments = plain + boot
    candidates = 0
    if segments:
        batch = GridBatch([(miss.config.num_gpus, miss.config.num_nodes)
                           for miss, _, _ in segments],
                          [grid for _, grid, _ in segments])
        goodput = _goodput(batch, [model for _, _, model in segments],
                           len(plain))
        for (miss, _, _), plan in zip(segments, best_plans(
                batch, goodput, [model for _, _, model in segments])):
            miss.plans[miss.index] = plan
        candidates = len(goodput)
    size = memo_size(memo)
    for miss in misses:
        if size >= PLAN_MEMO_MAX:
            memo.clear()
            size = 0
        row = memo.setdefault(miss.key, {})
        shape = (miss.config.num_gpus, miss.config.num_nodes)
        size += shape not in row
        row[shape] = miss.plans[miss.index]
    return len(segments), candidates


def _goodput(batch: GridBatch, models: list[GoodputModel],
             split: int) -> np.ndarray:
    """Goodput of every candidate of ``batch``, whose segments ``:split``
    run on a :class:`ThroughputModel` and the rest on a
    :class:`BootstrapModel`, segment ``s`` under ``models[s]``."""
    parts = []
    for first, last, rows in ((0, split, _plain_rows),
                              (split, len(batch), _bootstrap_rows)):
        if first == last:
            continue
        lo, hi = batch.bounds[first], batch.bounds[last]
        local, accum = batch.locals_[lo:hi], batch.accums[lo:hi]
        gpus = batch.column([k for k, _ in batch.shapes[first:last]],
                            first, last)
        xput = rows(batch, [m.throughput_model for m in models[first:last]],
                    first, last, local, accum, gpus)
        # Efficiency per estimator: one call per run of segments sharing one.
        totals = gpus * local * accum
        runs = [first, *(s for s in range(first + 1, last)
                         if models[s].efficiency_model
                         is not models[s - 1].efficiency_model), last]
        efficiency = [models[a].efficiency_model.efficiency_batch(
            totals[batch.bounds[a] - lo:batch.bounds[b] - lo])
            for a, b in zip(runs, runs[1:])]
        parts.append(xput * (efficiency[0] if len(efficiency) == 1
                             else np.concatenate(efficiency)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _param_rows(batch: GridBatch, models: list[ThroughputModel],
                first: int, last: int) -> tuple:
    """The ``alpha_c``, ``beta_c`` and ``gamma`` columns of segments
    ``first:last``, segment ``s`` on ``models[s - first]``."""
    params = [model.params for model in models]
    return (batch.column([p.alpha_c for p in params], first, last),
            batch.column([p.beta_c for p in params], first, last),
            batch.column([p.gamma for p in params], first, last))


def _sync_rows(batch: GridBatch, models: list[ThroughputModel],
               first: int, last: int) -> np.ndarray | float:
    """The sync-time column of segments ``first:last``: each segment's
    scalar :meth:`ThroughputModel.sync_time` at its shape."""
    return batch.column([model.sync_time(nodes, gpus) for model, (gpus, nodes)
                         in zip(models, batch.shapes[first:last])],
                        first, last)


def _plain_rows(batch: GridBatch, models: list[ThroughputModel],
                first: int, last: int, local: np.ndarray, accum: np.ndarray,
                gpus: np.ndarray | int) -> np.ndarray:
    """Throughput of segments ``first:last``, each on its own model."""
    return throughput_rows(local, accum, gpus,
                           *_param_rows(batch, models, first, last),
                           _sync_rows(batch, models, first, last))


def _bootstrap_rows(batch: GridBatch, models: list[BootstrapModel],
                    first: int, last: int, local: np.ndarray,
                    accum: np.ndarray, gpus: np.ndarray | int) -> np.ndarray:
    """Equation (1) throughput of segments ``first:last``, each on its own
    :class:`BootstrapModel`.  Reference slot ``r`` holds each segment's
    ``r``-th reference, padded with :data:`_NO_REFERENCE`."""
    own = _param_rows(batch, [model.own for model in models], first, last)
    refs = []
    for r in range(max(len(model.refs) for model in models)):
        slot = [model.refs[r] if r < len(model.refs) else _NO_REFERENCE
                for model in models]
        params = _param_rows(batch, slot, first, last)
        refs.append((throughput_rows(local, 1, 1, *params, 0.0),
                     throughput_rows(local, accum, gpus, *params,
                                     _sync_rows(batch, slot, first, last))))
    return bootstrap_rows(throughput_rows(local, 1, 1, *own, 0.0), refs,
                          gpus)
