"""Tests for the Sia policy round (``SiaScheduler.decide``): scale-up
rule, type matching, rigid jobs, restart stickiness, non-preemption,
allocation incentive."""

import pytest

from repro.core.policy import SiaPolicyParams
from repro.core.types import AdaptivityMode, Configuration, ProfilingMode
from repro.jobs.job import make_job
from repro.perf.estimator import JobPerfEstimator
from repro.schedulers import sia as sia_module
from repro.schedulers.base import JobView, RoundPlan
from repro.schedulers.sia import SiaScheduler
from tests.oracle import solve_exact


def view_for(job, cluster, *, current=None, age=0.0, restarts=0,
             mode=ProfilingMode.BOOTSTRAP, progress=0.0) -> JobView:
    estimator = JobPerfEstimator(job.model_name, job.constraints(),
                                 cluster.gpu_types, mode)
    estimator.profile_initial()
    return JobView(job=job, estimator=estimator, current_config=current,
                   age=age, num_restarts=restarts, progress=progress)


def chosen(plan: RoundPlan) -> dict[str, Configuration]:
    """The configuration each placed job received."""
    return {jid: alloc.configuration()
            for jid, alloc in plan.allocations.items()}


@pytest.fixture
def policy() -> SiaScheduler:
    return SiaScheduler()


def exact_policy(monkeypatch) -> SiaScheduler:
    """A scheduler whose ILP the branch-and-bound oracle solves."""
    monkeypatch.setattr(sia_module, "solve_assignment",
                        lambda problem, *args, **kwargs:
                        solve_exact(problem))
    return SiaScheduler()


class TestScaleUpRule:
    def test_new_job_starts_at_one_gpu(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        decision = policy.decide([view_for(job, hetero_cluster)],
                                 hetero_cluster, {}, 0.0)
        assert chosen(decision)["j1"].num_gpus == 1

    def test_running_job_at_most_doubles(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        current = Configuration(1, 2, "a100")
        view = view_for(job, hetero_cluster, current=current, age=7200.0)
        decision = policy.decide([view], hetero_cluster, {}, 7200.0)
        assert chosen(decision)["j1"].num_gpus <= 4

    def test_feasible_configs_include_current(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        current = Configuration(1, 8, "a100")
        view = view_for(job, hetero_cluster, current=current, age=3600.0)
        configs = policy.configurations(hetero_cluster, max_gpus=16)
        feasible = policy.feasible_configs(
            view, configs, {c: j for j, c in enumerate(configs)})
        assert configs.index(current) in feasible


class TestTypeMatching:
    def test_bert_lands_on_a100(self, policy, hetero_cluster):
        """The heart of the paper: with a100 available, an isolated BERT job
        should be placed there."""
        job = make_job("j1", "bert", 0.0)
        decision = policy.decide([view_for(job, hetero_cluster)],
                                 hetero_cluster, {}, 0.0)
        assert chosen(decision)["j1"].gpu_type == "a100"

    def test_contending_jobs_split_types(self, policy):
        """BERT prefers a100 strongly; DeepSpeech2 is nearly as fast on rtx.
        With one a100 GPU and one rtx GPU, Sia must give the a100 to BERT —
        the row normalization makes that cross-job comparison valid."""
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import NodeGroup
        scarce = Cluster.from_groups([NodeGroup("a100", 1, 1),
                                      NodeGroup("rtx", 1, 1)])
        bert = make_job("bert-0", "bert", 0.0)
        ds2 = make_job("ds2-0", "deepspeech2", 0.0)
        views = [view_for(ds2, scarce), view_for(bert, scarce)]
        decision = policy.decide(views, scarce, {}, 0.0)
        assert chosen(decision)["bert-0"].gpu_type == "a100"
        assert chosen(decision)["ds2-0"].gpu_type == "rtx"

    def test_fixed_gpu_type_respected(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0)
        job.fixed_gpu_type = "rtx"
        decision = policy.decide([view_for(job, hetero_cluster)],
                                 hetero_cluster, {}, 0.0)
        assert chosen(decision)["j1"].gpu_type == "rtx"


class TestRigidJobs:
    def test_rigid_count_pinned(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0, adaptivity=AdaptivityMode.RIGID,
                       fixed_num_gpus=4, fixed_batch_size=48)
        decision = policy.decide([view_for(job, hetero_cluster)],
                                 hetero_cluster, {}, 0.0)
        assert chosen(decision)["j1"].num_gpus == 4

    def test_rigid_job_still_gets_best_type(self, policy, hetero_cluster):
        job = make_job("j1", "bert", 0.0, adaptivity=AdaptivityMode.RIGID,
                       fixed_num_gpus=2, fixed_batch_size=48)
        decision = policy.decide([view_for(job, hetero_cluster)],
                                 hetero_cluster, {}, 0.0)
        assert chosen(decision)["j1"].gpu_type == "a100"


class TestRestartStickiness:
    def test_young_job_keeps_configuration(self, policy, hetero_cluster):
        """A job that just started should not be migrated for a *marginal*
        gain (Equation 3 discount).  DeepSpeech2 on rtx is only ~25% slower
        than on a100, far less than the restart discount of a 30 s old job
        with a 40 s restore cost; with max_gpus=1 scale-up cannot justify
        the move either."""
        job = make_job("j1", "deepspeech2", 0.0, max_gpus=1)
        current = Configuration(1, 1, "rtx")
        view = view_for(job, hetero_cluster, current=current, age=30.0)
        decision = policy.decide([view], hetero_cluster, {}, 30.0)
        assert chosen(decision)["j1"] == current

    def test_restart_factor_disabled_allows_migration(self, hetero_cluster):
        policy = SiaScheduler(SiaPolicyParams(use_restart_factor=False))
        job = make_job("j1", "bert", 0.0)
        current = Configuration(1, 1, "t4")
        view = view_for(job, hetero_cluster, current=current, age=30.0)
        decision = policy.decide([view], hetero_cluster, {}, 30.0)
        assert chosen(decision)["j1"].gpu_type == "a100"


class TestNonPreemption:
    def test_non_preemptible_job_pinned(self, policy, hetero_cluster):
        pinned = make_job("pin", "bert", 0.0, preemptible=False)
        current = Configuration(1, 8, "a100")
        views = [view_for(pinned, hetero_cluster, current=current, age=60.0)]
        # Add hungry competitors for a100.
        for i in range(4):
            views.append(view_for(make_job(f"c{i}", "bert", 0.0),
                                  hetero_cluster))
        decision = policy.decide(views, hetero_cluster, {}, 60.0)
        assert chosen(decision)["pin"] == current

    def test_current_config_outside_set_is_not_forced(self, policy,
                                                       hetero_cluster):
        """A running job whose configuration is not in this round's set
        (here: four rtx nodes on a cluster with three) has no column to
        be pinned to; it is planned like a queued job instead."""
        job = make_job("pin", "bert", 0.0, preemptible=False)
        current = Configuration(4, 32, "rtx")
        assert current not in policy.configurations(hetero_cluster,
                                                    max_gpus=64)
        view = view_for(job, hetero_cluster, current=current, age=60.0)
        decision = policy.decide([view], hetero_cluster, {}, 60.0)
        assert chosen(decision)["pin"] != current


class TestCapacity:
    def test_total_gpus_never_exceed_capacity(self, policy, hetero_cluster):
        views = [view_for(make_job(f"j{i}", "resnet18", 0.0), hetero_cluster)
                 for i in range(30)]
        decision = policy.decide(views, hetero_cluster, {}, 0.0)
        used: dict[str, int] = {}
        for config in chosen(decision).values():
            used[config.gpu_type] = used.get(config.gpu_type, 0) \
                + config.num_gpus
        for gpu_type, count in used.items():
            assert count <= hetero_cluster.capacity(gpu_type)

    def test_all_jobs_allocated_when_room(self, policy, hetero_cluster):
        """lambda incentivizes allocating every job at least min size."""
        views = [view_for(make_job(f"j{i}", "resnet18", 0.0), hetero_cluster)
                 for i in range(10)]
        decision = policy.decide(views, hetero_cluster, {}, 0.0)
        assert len(chosen(decision)) == 10

    def test_empty_views(self, policy, hetero_cluster):
        decision = policy.decide([], hetero_cluster, {}, 0.0)
        assert chosen(decision) == {}


class TestSolverBackends:
    @pytest.mark.parametrize("backend", ["milp", "exact", "greedy"])
    def test_all_backends_produce_valid_assignments(self, hetero_cluster,
                                                    backend, monkeypatch):
        if backend == "exact":
            policy = exact_policy(monkeypatch)
        else:
            policy = SiaScheduler(SiaPolicyParams(solver=backend))
        views = [view_for(make_job(f"j{i}", "resnet18", 0.0), hetero_cluster)
                 for i in range(5)]
        decision = policy.decide(views, hetero_cluster, {}, 0.0)
        assert chosen(decision)  # someone got resources

    def test_milp_and_exact_agree_on_objective(self, hetero_cluster,
                                               monkeypatch):
        views = [view_for(make_job(f"j{i}", "bert", 0.0), hetero_cluster)
                 for i in range(4)]
        milp = SiaScheduler(SiaPolicyParams(solver="milp")).decide(
            views, hetero_cluster, {}, 0.0)
        exact = exact_policy(monkeypatch).decide(views, hetero_cluster, {},
                                                 0.0)
        assert exact.backend == "exact"
        assert milp.objective == pytest.approx(exact.objective, rel=1e-6)
