"""Tests for worker-failure injection and epoch-checkpoint recovery
(Section 3.5: recovery via per-epoch checkpoints)."""

from repro.jobs.job import make_job
from repro.schedulers import SiaScheduler
from repro.sim import Simulator, SimulatorConfig, engine, simulate


def job(job_id="j1", model="resnet18", scale=0.2):
    return make_job(job_id, model, 0.0, work_scale=scale)


class TestFailureInjection:
    def test_no_failures_by_default(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [job()])
        assert result.node_failures == 0

    def test_failures_occur_at_high_rate(self, hetero_cluster):
        result = simulate(hetero_cluster, SiaScheduler(), [job()],
                          node_failure_rate=2.0, seed=0)
        assert result.node_failures > 0

    def test_jobs_survive_failures(self, hetero_cluster):
        """Jobs hit by failures lose progress but still complete."""
        jobs = [job(f"j{i}") for i in range(4)]
        result = simulate(hetero_cluster, SiaScheduler(), jobs,
                          node_failure_rate=1.0, seed=1, max_hours=100)
        assert all(j.completed for j in result.jobs)

    def test_failures_slow_jobs_down(self, hetero_cluster):
        """Losing progress to the last epoch checkpoint costs time."""
        jobs = [job(f"j{i}", scale=0.4) for i in range(3)]
        clean = simulate(hetero_cluster, SiaScheduler(), jobs, max_hours=100)
        faulty = simulate(hetero_cluster, SiaScheduler(), jobs,
                          node_failure_rate=3.0, seed=2, max_hours=100)
        assert faulty.node_failures > 0
        clean_avg = sum(clean.jcts_hours()) / len(clean.jobs)
        faulty_avg = sum(faulty.jcts_hours()) / len(faulty.jobs)
        assert faulty_avg > clean_avg

    def test_failed_jobs_count_extra_restarts(self):
        """On a single-node cluster every failure hits the running job, so
        its restart count must exceed the clean run's scale-up ramp."""
        from repro.cluster.cluster import Cluster
        from repro.cluster.node import NodeGroup
        cluster = Cluster.from_groups([NodeGroup("a100", 1, 8)])
        solo = [job("solo", scale=0.5)]
        clean = simulate(cluster, SiaScheduler(), solo, max_hours=100)
        faulty = simulate(cluster, SiaScheduler(), solo,
                          node_failure_rate=30.0, seed=2, max_hours=100)
        assert faulty.node_failures > 0
        assert faulty.jobs[0].num_restarts > clean.jobs[0].num_restarts

    def test_deterministic_given_seed(self, hetero_cluster):
        jobs = [job(f"j{i}") for i in range(3)]
        a = simulate(hetero_cluster, SiaScheduler(), jobs,
                     node_failure_rate=1.5, seed=9, max_hours=100)
        b = simulate(hetero_cluster, SiaScheduler(), jobs,
                     node_failure_rate=1.5, seed=9, max_hours=100)
        assert a.node_failures == b.node_failures
        assert [j.finish_time for j in a.jobs] == \
            [j.finish_time for j in b.jobs]

    def test_epoch_granularity_bounds_rollback(self, hetero_cluster,
                                               monkeypatch):
        """With a single epoch, any failure wipes all progress; with many
        epochs the loss is bounded — so coarse checkpointing must be
        slower under the same failure schedule."""
        jobs = [job(f"j{i}", scale=0.4) for i in range(3)]

        def run(epochs):
            monkeypatch.setattr(engine, "EPOCHS_PER_JOB", epochs)
            return Simulator(hetero_cluster, SiaScheduler(), jobs,
                             SimulatorConfig(node_failure_rate=3.0, seed=4,
                                             max_hours=100)).run()

        fine, coarse = run(50), run(1)
        assert coarse.node_failures == fine.node_failures
        assert sum(coarse.jcts_hours()) >= sum(fine.jcts_hours())


class TestFailureEdgeCases:
    def test_tiny_cluster_total_failure_recovers(self, tiny_cluster):
        """Even when every node fails, the simulator keeps a node alive so
        scheduling can continue and the job eventually finishes."""
        result = simulate(tiny_cluster, SiaScheduler(),
                          [job(model="resnet18", scale=0.05)],
                          node_failure_rate=20.0, seed=3, max_hours=50)
        assert result.node_failures > 0
        assert result.jobs[0].completed
