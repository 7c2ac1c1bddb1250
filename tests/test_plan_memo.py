"""The scheduler's plan memo (``repro.perf.estimator.PlanMemo``).

A memo maps the full inputs of one goodput plan to the plan a pass rated
for them, so later passes and lookups answer without rating a grid; it is
the only place plans are kept.  These tests pin its key field by field,
show that whole seeded runs decide the same with it as without it, and as
with every row key rebuilt at every probe, and check what it must not
change: the pickled scheduler (no memo is pickled) and the freeing of
finished estimators.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.cluster import presets
from repro.core.fork import make_scheduler, scheduler_jobs
from repro.core.types import Configuration, ProfilingMode
from repro.perf import profiles
from repro.perf.efficiency import EfficiencyModel, EfficiencyParams
from repro.perf.estimator import (PLAN_MEMO_MAX, WORK, JobConstraints,
                                  JobPerfEstimator, memo_size,
                                  plan_requests)
from repro.perf.fitting import Observation
from repro.perf.throughput import ThroughputModel
from repro.schedulers.base import Scheduler
from repro.schedulers.pollux import PolluxEstimator
from repro.schedulers.rigid import FIFOScheduler
from repro.schedulers.sia import SiaScheduler
from repro.sim import simulate
from repro.workloads import helios_trace
from tests.golden.regen import record
from tests.oracle import probe_afresh, probe_without_row

MODEL = "bert"
TYPES = ("t4", "rtx", "a100")
ROW = [Configuration(n, k, t) for t in TYPES
       for n, k in ((1, 1), (1, 2), (1, 4), (2, 8))]
MULTI_T4 = [Configuration(1, 2, "t4"), Configuration(1, 4, "t4")]


def limits(**changes) -> JobConstraints:
    profile = profiles.model_profile(MODEL)
    values = dict(min_bsz=profile.min_bsz, max_bsz=profile.max_bsz)
    return JobConstraints(**{**values, **changes})


def profiled(cls=JobPerfEstimator, types=TYPES, *mode) -> JobPerfEstimator:
    est = cls(MODEL, limits(), types, *mode)
    est.profile_initial()
    return est


def plans_of(memo) -> list:
    """Every plan ``memo`` holds, in the order it stored them."""
    return [plan for row in memo.values() for plan in row.values()]


def report(est, gpu_type, num_gpus, local_bsz, scale=1.0) -> None:
    """One report of the true iteration time times ``scale``."""
    true_model = ThroughputModel(
        profiles.true_throughput_params(MODEL, gpu_type))
    nodes = 1 if num_gpus <= 4 else 2
    assert est.add_observation(Observation(
        gpu_type=gpu_type, num_nodes=nodes, num_gpus=num_gpus,
        local_bsz=local_bsz, accum_steps=1,
        iter_time=scale * true_model.iter_time(local_bsz, num_gpus, nodes)))


def one_gpu_t4(est) -> JobPerfEstimator:
    """``est`` fed 1-GPU reports on t4 only, so its multi-GPU t4 plans go
    to the ``boot`` branch unless it trusts every fit (Pollux)."""
    for local_bsz in (8, 32, 64):
        report(est, "t4", 1, local_bsz)
    return est


def boot_flag():
    plain = one_gpu_t4(JobPerfEstimator(MODEL, limits(), ("t4",)))
    blind = one_gpu_t4(PolluxEstimator(MODEL, limits(), ("t4",)))
    assert plain._branch("t4", 2) == "boot"
    assert blind._branch("t4", 2) == "fit"
    assert plain._fit("t4").params == blind._fit("t4").params
    assert plain.max_local_bsz("t4") == blind.max_local_bsz("t4")
    return plain, MULTI_T4, blind, MULTI_T4


def own_params():
    first, second = profiled(), profiled()
    report(second, "t4", 1, 3, scale=1.5)
    return first, [Configuration(1, 1, "t4")], second, \
        [Configuration(1, 1, "t4")]


def reference_params():
    first, second = profiled(), profiled()
    report(first, "rtx", 2, 16)
    report(second, "rtx", 2, 16, scale=1.3)
    assert first._fit("t4").params == second._fit("t4").params
    return first, MULTI_T4, second, MULTI_T4


def reference_order():
    first = profiled(types=("t4", "rtx", "a100"))
    second = profiled(types=("t4", "a100", "rtx"))
    for est in (first, second):
        report(est, "rtx", 2, 16)
        report(est, "a100", 2, 16)
    refs = [[model.params for model in est._branch_model("boot", "t4").refs]
            for est in (first, second)]
    assert refs[0] == refs[1][::-1] and refs[0] != refs[1]
    return first, MULTI_T4, second, MULTI_T4


def grad_noise_scale():
    first, second = profiled(), profiled()
    second.update_gradient_stats(
        4 * first.efficiency_model.params.grad_noise_scale)
    return first, ROW, second, ROW


def init_batch_size():
    first, second = profiled(), profiled()
    params = first.efficiency_model.params
    second._efficiency = EfficiencyModel(EfficiencyParams(
        params.grad_noise_scale, 2 * params.init_batch_size))
    return first, ROW, second, ROW


def max_local_bsz():
    first, second = profiled(), profiled()
    second._local_caps = {t: cap // 2 for t, cap in first._local_caps.items()}
    return first, ROW, second, ROW


def with_limits(**changes):
    def case():
        first, second = profiled(), profiled()
        second.constraints = limits(**changes)
        assert second._local_caps == first._local_caps
        return first, ROW, second, ROW
    return case


def shape(first_config, second_config):
    def case():
        first, second = (profiled(JobPerfEstimator, TYPES,
                                  ProfilingMode.ORACLE) for _ in range(2))
        return first, [first_config], second, [second_config]
    return case


KEY_FIELDS = {
    "boot": boot_flag,
    "own-params": own_params,
    "reference-params": reference_params,
    "reference-order": reference_order,
    "grad-noise-scale": grad_noise_scale,
    "init-batch-size": init_batch_size,
    "max-local-bsz": max_local_bsz,
    "max-bsz": with_limits(max_bsz=4 * profiles.model_profile(MODEL).max_bsz),
    "min-bsz": with_limits(min_bsz=2 * profiles.model_profile(MODEL).min_bsz),
    "fixed-total-bsz": with_limits(fixed_total_bsz=256),
    "num-gpus": shape(Configuration(1, 2, "rtx"), Configuration(1, 4, "rtx")),
    "num-nodes": shape(Configuration(1, 4, "a100"),
                       Configuration(2, 4, "a100")),
}


class TestKey:
    @pytest.mark.parametrize("field", KEY_FIELDS)
    def test_estimators_differing_in_one_field_share_nothing(self, field):
        """Two estimators that differ only in ``field`` never answer each
        other's misses from one memo: the second rates its own plans."""
        first, first_row, second, second_row = KEY_FIELDS[field]()
        alone = copy.deepcopy(second)
        memo: dict = {}
        plan_requests([(first, first_row)], memo=memo)
        assert memo
        hits = WORK["hits"]
        plans = plan_requests([(second, second_row)], memo=memo)[0]
        assert WORK["hits"] == hits
        assert plans == alone.best_plans(second_row)

    def test_identical_estimators_share_every_plan(self):
        first, second = profiled(), profiled()
        report(first, "rtx", 2, 16)
        report(second, "rtx", 2, 16)
        memo: dict = {}
        rated = plan_requests([(first, ROW)], memo=memo)[0]
        hits = WORK["hits"]
        plans = plan_requests([(second, ROW)], memo=memo)[0]
        assert WORK["hits"] - hits == len(ROW) == memo_size(memo)
        assert all(a is b for a, b in zip(plans, rated))

    def test_a_pass_answers_only_from_earlier_passes(self):
        """Repeats within one pass are all rated, then memoized once."""
        twins = [profiled(), profiled()]
        memo: dict = {}
        hits = WORK["hits"]
        first, second = plan_requests([(est, ROW) for est in twins],
                                      memo=memo)
        assert WORK["hits"] == hits
        assert first == second and memo_size(memo) == len(ROW)

    def test_infeasible_configurations_are_memoized_as_none(self):
        est = profiled()
        est.constraints = limits(fixed_total_bsz=1)
        multi = [config for config in ROW if config.num_gpus > 1]
        memo: dict = {}
        assert plan_requests([(est, multi)], memo=memo)[0] == \
            [None] * len(multi)
        assert plans_of(memo) == [None] * len(multi)


class TestBounds:
    def test_memo_is_cleared_at_its_cap(self):
        """A memo one plan short of its cap takes that plan, clears, and
        keeps the rest of the pass."""
        memo = {("filler",): dict.fromkeys(range(PLAN_MEMO_MAX - 1))}
        est = profiled()
        plans = plan_requests([(est, ROW)], memo=memo)[0]
        assert memo_size(memo) == len(ROW) - 1 < PLAN_MEMO_MAX
        assert ("filler",) not in memo
        assert plans_of(memo) == plans[1:]

    def test_no_estimator_is_reachable_from_the_memo(self):
        scheduler = make_scheduler("sia")
        run(scheduler, "sia")
        memo = scheduler.plan_memo
        assert memo
        seen, stack = set(), [memo]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, JobPerfEstimator)
            stack.extend(gc.get_referents(obj))

    def test_finished_estimators_are_freed(self):
        memo: dict = {}
        est = profiled()
        plan_requests([(est, ROW)], memo=memo)
        alive = weakref.ref(est)
        del est
        gc.collect()
        assert memo and alive() is None


def run(scheduler, policy, **options):
    trace = helios_trace(seed=3, num_jobs=8, window_hours=1.0,
                         work_scale_factor=0.1)
    cluster = presets.heterogeneous()
    jobs = scheduler_jobs(policy, trace.jobs, cluster, trace.seed)
    return simulate(cluster, scheduler, jobs, seed=1, max_hours=4.0,
                    **options)


RUNS = {
    "sia-noisy": ("sia", {"obs_noise": 0.05}),
    "sia-no-prof": ("sia", {"profiling_mode": ProfilingMode.NO_PROF}),
    "sia-oracle": ("sia", {"profiling_mode": ProfilingMode.ORACLE}),
    "pollux": ("pollux", {}),
    "gavel": ("gavel", {}),
    "fifo": ("fifo", {}),
}


class TestRuns:
    @pytest.mark.parametrize("case", RUNS)
    def test_memo_moves_no_decision(self, case, monkeypatch):
        """A run with the memo decides and estimates exactly as one whose
        memo is fresh at every query, and the memo did answer something."""
        policy, options = RUNS[case]
        hits = WORK["hits"]
        with_memo = record(run(make_scheduler(policy), policy, **options))
        assert WORK["hits"] > hits
        monkeypatch.setattr(Scheduler, "plan_memo",
                            property(lambda self: {}))
        hits = WORK["hits"]
        fresh = record(run(make_scheduler(policy), policy, **options))
        assert WORK["hits"] == hits
        assert with_memo == fresh

    @pytest.mark.parametrize("case", RUNS)
    def test_key_slots_move_no_decision(self, case, monkeypatch):
        """A run whose estimators keep each group's row key until their
        evidence changes, and return a saved row for a repeated probe,
        decides and estimates exactly as one whose estimators keep keys
        but save no row, and as one whose estimators build every key and
        look up every plan at every probe."""
        policy, options = RUNS[case]
        kept = record(run(make_scheduler(policy), policy, **options))
        for probe in (probe_without_row, probe_afresh):
            monkeypatch.setattr(JobPerfEstimator, "_probe", probe)
            assert record(run(make_scheduler(policy), policy,
                              **options)) == kept


class TestPickle:
    def test_pickled_scheduler_holds_no_memo(self):
        scheduler = make_scheduler("sia")
        run(scheduler, "sia")
        assert scheduler.plan_memo
        data = pickle.dumps(scheduler)
        restored = pickle.loads(data)
        assert "_plan_memo" not in vars(restored)
        assert restored.plan_memo == {}
        del scheduler._plan_memo
        assert pickle.dumps(scheduler) == data

    def test_sia_pickles_without_what_it_derives(self):
        """After a run, Sia pickles to the bytes of a fresh scheduler with
        the same parameters, configuration cache and the tracer and
        metrics the simulator attaches: its derived configuration sets are
        not pickled, and it derives them again once restored."""
        scheduler = make_scheduler("sia")
        run(scheduler, "sia")
        entries = scheduler._config_cache.values()
        assert scheduler._last_set and any(e.feasible for e in entries)
        fresh = SiaScheduler(scheduler.params, scheduler.round_duration)
        fresh._config_cache = scheduler._config_cache
        fresh.tracer, fresh.metrics = scheduler.tracer, scheduler.metrics
        data = pickle.dumps(scheduler)
        assert data == pickle.dumps(fresh)
        restored = pickle.loads(data)
        assert "_last_set" not in vars(restored)
        assert not any(e.feasible for e in restored._config_cache.values())
        cluster = presets.heterogeneous()
        configs = restored.configurations(cluster, max_gpus=64)
        assert configs == scheduler.configurations(cluster, max_gpus=64)
        assert restored.configurations(cluster, max_gpus=64) is configs

    def test_memo_alone_pickles_as_an_empty_state(self):
        """A scheduler whose only attribute is its memo pickles like one
        that never made it."""
        scheduler = FIFOScheduler()
        assert vars(scheduler) == {}
        scheduler.plan_memo[("key",)] = {(1,): None}
        # The default pickle writes an empty instance dict as no state.
        assert scheduler.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2] is None
