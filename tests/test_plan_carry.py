"""The round plan carries each allocated job's batch plan to the engine.

``decide`` rates every allocation once: Sia's ILP column where placement
kept its configuration, ``record_estimates``' one ``best_plan`` lookup
otherwise.  ``Simulator._advance`` runs that plan, and looks one up only
for a job the plan carries none for, as on a carried-forward round.
"""

from __future__ import annotations

import pytest

from repro.cluster import presets
from repro.core.fork import make_scheduler, scheduler_jobs
from repro.core.types import Configuration, ProfilingMode
from repro.jobs.hybrid import HybridPerfEstimator
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers import sia as sia_module
from repro.schedulers.base import JobView
from repro.schedulers.rigid import FIFOScheduler
from repro.sim import simulate
from repro.sim.engine import Simulator
from repro.workloads import helios_trace

LOOKUP_CLASSES = (JobPerfEstimator, HybridPerfEstimator)


class Lookups:
    """Counts ``best_plan`` calls on every estimator class and, per
    ``Simulator._advance`` call, how many it made, whether the round plan
    carried the job's plan, and whether that plan is the one a lookup
    gives."""

    def __init__(self, monkeypatch):
        self.calls = 0
        #: (carried, lookups made, carried plan == looked-up plan).
        self.advances: list[tuple[bool, int, bool]] = []
        originals = {cls: cls.best_plan for cls in LOOKUP_CLASSES}

        def counting(original):
            def best_plan(estimator, config, memo=None):
                self.calls += 1
                return original(estimator, config, memo)
            return best_plan

        for cls, original in originals.items():
            monkeypatch.setattr(cls, "best_plan", counting(original))
        advance = Simulator._advance

        def watched(simulator, rt, rnd, plans):
            job_id = rt.job.job_id
            carried = job_id in plans
            fresh = originals[_lookup_class(rt.estimator)](
                rt.estimator, rt.allocation.configuration(),
                simulator.scheduler.plan_memo)
            before = self.calls
            out = advance(simulator, rt, rnd, plans)
            self.advances.append((carried, self.calls - before,
                                  not carried or plans[job_id] == fresh))
            return out

        monkeypatch.setattr(Simulator, "_advance", watched)


def _lookup_class(estimator) -> type:
    return next(cls for cls in LOOKUP_CLASSES if isinstance(estimator, cls))


def helios_run(scheduler, policy, **options):
    trace = helios_trace(seed=3, num_jobs=8, window_hours=1.0,
                         work_scale_factor=0.1)
    cluster = presets.heterogeneous()
    jobs = scheduler_jobs(policy, trace.jobs, cluster, trace.seed)
    return simulate(cluster, scheduler, jobs, seed=1, max_hours=4.0,
                    **options)


class TestAdvance:
    @pytest.mark.parametrize("policy", ["fifo", "sia"])
    def test_no_lookup_for_a_carried_plan(self, policy, monkeypatch):
        lookups = Lookups(monkeypatch)
        helios_run(make_scheduler(policy), policy)
        assert lookups.advances
        assert all(carried and made == 0 and same
                   for carried, made, same in lookups.advances)

    def test_carry_forward_round_looks_each_job_up(self, monkeypatch):
        """A resilient run whose scheduler raises every third round carries
        the previous allocations forward with no plans, so each running
        job is looked up once; the other rounds look nothing up."""

        class Flaky(FIFOScheduler):
            rounds = 0

            def decide(self, views, cluster, previous, now):
                self.rounds += 1
                if self.rounds % 3 == 0:
                    raise RuntimeError("planner down")
                return super().decide(views, cluster, previous, now)

        lookups = Lookups(monkeypatch)
        result = helios_run(Flaky(), "fifo", resilient=True)
        assert any(r.backend == "carry" and r.running_jobs
                   for r in result.rounds)
        carried = [made for was, made, _ in lookups.advances if was]
        looked_up = [made for was, made, _ in lookups.advances if not was]
        assert carried and looked_up
        assert set(carried) == {0} and set(looked_up) == {1}
        assert all(same for _, _, same in lookups.advances)


class TestSiaPlans:
    def views(self, cluster):
        scheduler = make_scheduler("sia")
        trace = helios_trace(seed=3, num_jobs=6, window_hours=1.0,
                             work_scale_factor=0.1)
        views = []
        for job in trace.jobs:
            estimator = scheduler.make_estimator(job, cluster,
                                                 ProfilingMode.ORACLE)
            views.append(JobView(job=job, estimator=estimator,
                                 current_config=None, age=0.0,
                                 num_restarts=0, progress=0.0))
        return scheduler, views

    def test_ilp_column_plans_are_carried(self):
        cluster = presets.heterogeneous()
        scheduler, views = self.views(cluster)
        plan = scheduler.decide(views, cluster, {}, 0.0)
        assert plan.allocations and set(plan.plans) == set(plan.allocations)
        for view in views:
            allocation = plan.allocations.get(view.job_id)
            if allocation is not None:
                assert plan.plans[view.job_id] == view.estimator.best_plan(
                    allocation.configuration(), scheduler.plan_memo)

    def test_moved_placement_gets_a_lookup(self, monkeypatch):
        """Placement that does not keep the ILP's configuration gets its
        own configuration's plan, not the column's."""
        cluster = presets.heterogeneous()
        scheduler, views = self.views(cluster)
        place = sia_module.place
        moved: dict[str, Configuration] = {}

        def moving_place(cluster, assignments, previous, pinned):
            job_id, column = next(iter(sorted(assignments.items())))
            other = next(t for t in cluster.gpu_types
                         if t != column.gpu_type)
            moved[job_id] = column
            return place(cluster, {**assignments,
                                   job_id: Configuration(1, 1, other)},
                         previous, pinned)

        monkeypatch.setattr(sia_module, "place", moving_place)
        plan = scheduler.decide(views, cluster, {}, 0.0)
        (job_id, column), = moved.items()
        view = next(v for v in views if v.job_id == job_id)
        config = plan.allocations[job_id].configuration()
        assert config != column
        memo = scheduler.plan_memo
        assert plan.plans[job_id] == view.estimator.best_plan(config, memo)
        assert plan.plans[job_id] != view.estimator.best_plan(column, memo)
