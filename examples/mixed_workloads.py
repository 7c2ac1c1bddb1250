#!/usr/bin/env python
"""Mixed workloads and operational realities on one cluster.

This example runs, side by side on the 64-GPU heterogeneous testbed:

* adaptive training jobs (BERT, ResNet18, YOLOv3),
* a non-preemptible training job (reservation semantics),

and injects worker failures (Section 3.5's checkpoint-recovery path).

Run:  python examples/mixed_workloads.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.cluster import presets
from repro.jobs import make_job
from repro.schedulers import SiaScheduler
from repro.sim import simulate


def main() -> None:
    cluster = presets.heterogeneous()
    jobs = [
        make_job("train-bert", "bert", 0.0, work_scale=0.3),
        make_job("train-resnet", "resnet18", 120.0, work_scale=0.3),
        make_job("train-yolo", "yolov3", 240.0, work_scale=0.05),
        make_job("reserved", "deepspeech2", 0.0, work_scale=0.2,
                 preemptible=False),
    ]

    print(f"Cluster: {cluster.describe()}; injecting ~0.5 failures per "
          "node-hour\n")
    result = simulate(cluster, SiaScheduler(), jobs,
                      node_failure_rate=0.5, seed=7, max_hours=50)

    rows = []
    for record in result.jobs:
        job = next(j for j in jobs if j.job_id == record.job_id)
        rows.append({
            "job": record.job_id,
            "preemptible": job.preemptible,
            "jct_min": round(record.jct(result.end_time) / 60.0, 1),
            "restarts": record.num_restarts,
            "gpu_types": "+".join(sorted(record.gpu_seconds)) or "-",
        })
    print(format_table(rows, title="Mixed workload under Sia"))
    print(f"\nworker failures injected: {result.node_failures}")


if __name__ == "__main__":
    main()
