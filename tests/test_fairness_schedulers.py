"""Tests for Shockwave, Themis, FIFO and SRTF baselines."""

import math

import pytest

from repro.core.types import AdaptivityMode, ProfilingMode
from repro.jobs.job import make_job
from repro.schedulers import (FIFOScheduler, ShockwaveScheduler,
                              SRTFScheduler, ThemisScheduler)
from repro.schedulers.base import JobView
from repro.schedulers.rigid import (best_rate, fair_finish_ratio,
                                    fixed_count_rates, place_rigid)


def rigid_view(job_id, model, cluster, *, gpus=1, submit=0.0, progress=0.0,
               scheduler=None) -> JobView:
    job = make_job(job_id, model, submit, adaptivity=AdaptivityMode.RIGID,
                   fixed_num_gpus=gpus)
    scheduler = scheduler or ShockwaveScheduler()
    estimator = scheduler.make_estimator(job, cluster, ProfilingMode.ORACLE)
    return JobView(job=job, estimator=estimator, current_config=None,
                   age=0.0, num_restarts=0, progress=progress)


def rate(view, cluster) -> float:
    """The job's best fitting rate, as the rigid decide loop computes it."""
    return best_rate(view, fixed_count_rates([view], cluster)[0],
                     cluster.capacities())


def place(view, cluster, occupancy, previous):
    return place_rigid(view, fixed_count_rates([view], cluster)[0],
                       cluster, occupancy, previous)


class TestFairFinishRatio:
    def test_fresh_job_low_ratio(self, hetero_cluster):
        view = rigid_view("j1", "bert", hetero_cluster)
        rho = fair_finish_ratio(view, rate(view, hetero_cluster), 0.0,
                                contention=10)
        assert 0 < rho < 1

    def test_starved_job_ratio_grows(self, hetero_cluster):
        view = rigid_view("j1", "bert", hetero_cluster)
        early = fair_finish_ratio(view, rate(view, hetero_cluster), 0.0,
                                  contention=2)
        late = fair_finish_ratio(view, rate(view, hetero_cluster),
                                 10 * 3600.0, contention=2)
        assert late > early

    def test_infeasible_job_infinite(self, hetero_cluster):
        view = rigid_view("big", "bert", hetero_cluster, gpus=32)
        assert math.isinf(fair_finish_ratio(view, rate(view, hetero_cluster),
                                            0.0, 1))


class TestPlaceRigid:
    def test_picks_fastest_type_when_free(self, hetero_cluster):
        view = rigid_view("j1", "bert", hetero_cluster, gpus=2)
        alloc = place(view, hetero_cluster, {}, None)
        assert alloc.gpu_type == "a100"

    def test_prefers_current_type_when_competitive(self, hetero_cluster):
        """DeepSpeech2 on rtx is within 2x of its best type, so it stays
        put rather than paying a checkpoint-restore."""
        from repro.core.types import Allocation
        view = rigid_view("j1", "deepspeech2", hetero_cluster, gpus=2)
        rtx_node = hetero_cluster.nodes_of_type("rtx")[0].node_id
        prev = Allocation.build("rtx", {rtx_node: 2})
        alloc = place(view, hetero_cluster, {}, prev)
        assert alloc == prev  # stays put: no restart

    def test_migrates_when_current_type_is_terrible(self, hetero_cluster):
        """BERT stuck on t4 runs ~7x slower than on a100: worth a restart."""
        from repro.core.types import Allocation
        view = rigid_view("j1", "bert", hetero_cluster, gpus=2)
        t4_node = hetero_cluster.nodes_of_type("t4")[0].node_id
        prev = Allocation.build("t4", {t4_node: 2})
        alloc = place(view, hetero_cluster, {}, prev)
        assert alloc.gpu_type == "a100"

    def test_falls_back_when_best_full(self, hetero_cluster):
        occupancy = {n.node_id: n.num_gpus
                     for n in hetero_cluster.nodes_of_type("a100")}
        view = rigid_view("j1", "bert", hetero_cluster, gpus=2)
        alloc = place(view, hetero_cluster, occupancy, None)
        assert alloc is not None
        assert alloc.gpu_type != "a100"


class TestShockwaveAndThemis:
    @pytest.mark.parametrize("scheduler_cls", [ShockwaveScheduler,
                                               ThemisScheduler])
    def test_plan_valid(self, hetero_cluster, scheduler_cls):
        scheduler = scheduler_cls()
        views = [rigid_view(f"j{i}", "resnet18", hetero_cluster, gpus=2,
                            scheduler=scheduler) for i in range(8)]
        plan = scheduler.decide(views, hetero_cluster, {}, 0.0)
        plan.validate(hetero_cluster)
        assert plan.allocations

    @pytest.mark.parametrize("scheduler_cls", [ShockwaveScheduler,
                                               ThemisScheduler])
    def test_starved_job_prioritized(self, hetero_cluster, scheduler_cls):
        """A long-waiting job must be served before fresh arrivals when
        capacity is scarce."""
        scheduler = scheduler_cls()
        now = 8 * 3600.0
        starved = rigid_view("starved", "resnet50", hetero_cluster, gpus=16,
                             submit=0.0, scheduler=scheduler)
        fresh = [rigid_view(f"fresh{i}", "resnet50", hetero_cluster, gpus=16,
                            submit=now - 60.0, scheduler=scheduler)
                 for i in range(4)]  # total demand 80 > 64
        plan = scheduler.decide([*fresh, starved], hetero_cluster, {}, now)
        assert "starved" in plan.allocations

    def test_shockwave_efficiency_tier_is_sjf(self, hetero_cluster):
        """Among fair jobs (rho <= 1), Shockwave prefers the nearly-done one."""
        scheduler = ShockwaveScheduler()
        contention = 2
        nearly_done = rigid_view("done", "resnet50", hetero_cluster,
                                 scheduler=scheduler)
        nearly_done.progress = 0.9 * nearly_done.job.target_samples
        fresh = rigid_view("fresh", "resnet50", hetero_cluster,
                           scheduler=scheduler)
        p_done = scheduler.serving_key(
            nearly_done, rate(nearly_done, hetero_cluster), 0.0, contention)
        p_fresh = scheduler.serving_key(fresh, rate(fresh, hetero_cluster),
                                        0.0, contention)
        assert p_done > p_fresh

    def test_shockwave_unfair_tier_beats_fair_tier(self, hetero_cluster):
        """A job past the unfairness threshold outranks any fair job."""
        scheduler = ShockwaveScheduler()
        now = 48 * 3600.0  # starved waited two days
        starved = rigid_view("starved", "resnet18", hetero_cluster,
                             scheduler=scheduler)
        fresh = rigid_view("fresh", "resnet18", hetero_cluster,
                           submit=now - 60.0, scheduler=scheduler)
        fresh.progress = 0.99 * fresh.job.target_samples
        p_starved = scheduler.serving_key(
            starved, rate(starved, hetero_cluster), now, 2)
        p_fresh = scheduler.serving_key(fresh, rate(fresh, hetero_cluster),
                                        now, 2)
        assert p_starved[0] == 1  # at-risk tier
        assert p_starved > p_fresh

    def test_empty_views(self, hetero_cluster):
        for scheduler in (ShockwaveScheduler(), ThemisScheduler()):
            assert scheduler.decide([], hetero_cluster, {}, 0.0).allocations \
                == {}


class TestFIFO:
    def test_serves_in_submission_order(self, hetero_cluster):
        scheduler = FIFOScheduler()
        views = [rigid_view(f"j{i}", "resnet50", hetero_cluster, gpus=16,
                            submit=float(i), scheduler=scheduler)
                 for i in range(6)]  # demand 96 > 64
        plan = scheduler.decide(views, hetero_cluster, {}, 10.0)
        # 16-GPU jobs fit once per type (capacities 24/24/16): exactly the
        # three earliest-submitted jobs run.
        assert set(plan.allocations) == {"j0", "j1", "j2"}

    def test_never_preempts(self, hetero_cluster):
        scheduler = FIFOScheduler()
        views = [rigid_view("old", "resnet50", hetero_cluster, gpus=16,
                            submit=0.0, scheduler=scheduler)]
        first = scheduler.decide(views, hetero_cluster, {}, 0.0)
        views.append(rigid_view("new", "bert", hetero_cluster, gpus=16,
                                submit=1.0, scheduler=scheduler))
        second = scheduler.decide(views, hetero_cluster,
                                  first.allocations, 360.0)
        assert second.allocations["old"] == first.allocations["old"]


class TestSRTF:
    def test_shortest_first(self, hetero_cluster):
        scheduler = SRTFScheduler()
        short = rigid_view("short", "resnet18", hetero_cluster, gpus=16,
                           scheduler=scheduler)
        long_jobs = [rigid_view(f"long{i}", "resnet50", hetero_cluster,
                                gpus=16, scheduler=scheduler)
                     for i in range(4)]
        plan = scheduler.decide([*long_jobs, short], hetero_cluster, {}, 0.0)
        assert "short" in plan.allocations

    def test_progress_shortens_remaining(self, hetero_cluster):
        scheduler = SRTFScheduler()
        view = rigid_view("j1", "resnet50", hetero_cluster,
                          scheduler=scheduler)
        best = rate(view, hetero_cluster)
        before = scheduler.serving_key(view, best, 0.0, 1)
        view.progress = 0.5 * view.job.target_samples
        after = scheduler.serving_key(view, best, 0.0, 1)
        assert after == pytest.approx(before / 2, rel=1e-6)
