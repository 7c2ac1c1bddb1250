"""Custom resource requests (Section 3.4): jobs with user-defined
parallelism pinned to a specific GPU count, type and/or batch size."""

from repro.core.types import AdaptivityMode
from repro.jobs.job import make_job
from repro.schedulers import SiaScheduler
from repro.sim import simulate


class TestFullyPinnedJobs:
    def test_count_type_and_batch_all_pinned(self, hetero_cluster):
        """A job tuned offline for 4x rtx at batch 48 must run exactly
        there, while Sia still schedules everything else freely."""
        pinned = make_job("pinned", "bert", 0.0,
                          adaptivity=AdaptivityMode.RIGID,
                          fixed_num_gpus=4, fixed_batch_size=48,
                          work_scale=0.1)
        pinned.fixed_gpu_type = "rtx"
        friends = [make_job(f"f{i}", "resnet18", 0.0, work_scale=0.05)
                   for i in range(4)]
        result = simulate(hetero_cluster, SiaScheduler(), [pinned, *friends],
                          max_hours=50)
        record = result.job("pinned")
        assert record.completed
        assert set(record.gpu_seconds) == {"rtx"}
        counts = {n for _, _, n in result.allocation_timeline("pinned")
                  if n > 0}
        assert counts == {4}

    def test_type_pinned_adaptive_job_still_scales(self, hetero_cluster):
        """Pinning only the GPU type leaves count/batch adaptivity alive."""
        job = make_job("typed", "deepspeech2", 0.0, work_scale=0.4)
        job.fixed_gpu_type = "rtx"
        result = simulate(hetero_cluster, SiaScheduler(), [job],
                          max_hours=50)
        record = result.job("typed")
        assert record.completed
        assert set(record.gpu_seconds) == {"rtx"}
        counts = {n for _, _, n in result.allocation_timeline("typed")
                  if n > 0}
        assert len(counts) > 1  # it scaled up over its life

    def test_pinned_type_with_no_capacity_queues(self, tiny_cluster):
        """A job pinned to a type the cluster lacks stays queued (censored)
        rather than crashing the policy."""
        job = make_job("stranded", "resnet18", 0.0, work_scale=0.05)
        job.fixed_gpu_type = "a100"  # tiny_cluster has quad + t4 only
        result = simulate(tiny_cluster, SiaScheduler(), [job], max_hours=0.2)
        assert result.censored == 1
