"""Serialization: save/load traces, results and run diffs as JSON, and
load the streamed JSONL telemetry artifacts.

Traces round-trip exactly (including hybrid specs and inference metadata)
so experiments can be pinned to files and re-run; results serialize the
per-job and per-round records every metric is derived from.

Every writer in this module goes through :func:`atomic_write_text` /
:func:`atomic_write_bytes` — write to a temporary sibling, then
``os.replace`` over the destination — so a crash mid-save never truncates
an existing artifact.  The checkpoint subsystem
(:mod:`repro.sim.checkpoint`) uses the same helper for its snapshots.
The ledger, alert and health-event JSONL files have one writer each, a
streaming observer in :mod:`repro.obs.stream`; the loaders here read
them through :func:`repro.obs.stream.read_jsonl`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.atomicio import atomic_write_bytes as atomic_write_bytes
from repro.atomicio import atomic_write_text as atomic_write_text
from repro.core.health import HealthEvent
from repro.core.types import AdaptivityMode
from repro.jobs.hybrid import HybridSpec
from repro.jobs.job import Job
from repro.obs.audit import AllocationEvent
from repro.obs.diff import RunDiff
from repro.obs.ledger import GoodputLedger, LedgerEntry
from repro.obs.slo import Alert
from repro.obs.stream import FORMAT_VERSION, check_payload, read_jsonl
from repro.sim.telemetry import (FaultEvent, JobRecord, RoundRecord,
                                 SimulationResult)
from repro.workloads.trace import Trace


# The atomic-write helpers live in :mod:`repro.atomicio` (shared with the
# checkpoint subsystem without an import cycle) and are re-exported above
# so existing ``repro.io.atomic_write_*`` callers keep working.

# -- traces ------------------------------------------------------------------

def job_to_dict(job: Job) -> dict[str, Any]:
    data: dict[str, Any] = {
        "job_id": job.job_id,
        "model_name": job.model_name,
        "submit_time": job.submit_time,
        "target_samples": job.target_samples,
        "adaptivity": job.adaptivity.value,
        "min_gpus": job.min_gpus,
        "max_gpus": job.max_gpus,
        "fixed_batch_size": job.fixed_batch_size,
        "fixed_num_gpus": job.fixed_num_gpus,
        "fixed_gpu_type": job.fixed_gpu_type,
        "preemptible": job.preemptible,
        "workload": job.workload,
        "latency_slo": job.latency_slo,
    }
    if job.hybrid is not None:
        data["hybrid"] = {
            "stages_per_type": dict(job.hybrid.stages_per_type),
            "micro_batch_size": job.hybrid.micro_batch_size,
            "num_microbatches": job.hybrid.num_microbatches,
        }
    return data


def job_from_dict(data: dict[str, Any]) -> Job:
    hybrid = None
    if "hybrid" in data and data["hybrid"] is not None:
        spec = data["hybrid"]
        hybrid = HybridSpec(stages_per_type=dict(spec["stages_per_type"]),
                            micro_batch_size=spec["micro_batch_size"],
                            num_microbatches=spec["num_microbatches"])
    return Job(
        job_id=data["job_id"],
        model_name=data["model_name"],
        submit_time=data["submit_time"],
        target_samples=data["target_samples"],
        adaptivity=AdaptivityMode(data["adaptivity"]),
        min_gpus=data.get("min_gpus", 1),
        max_gpus=data["max_gpus"],
        fixed_batch_size=data.get("fixed_batch_size"),
        fixed_num_gpus=data.get("fixed_num_gpus"),
        fixed_gpu_type=data.get("fixed_gpu_type"),
        preemptible=data.get("preemptible", True),
        hybrid=hybrid,
        workload=data.get("workload", "training"),
        latency_slo=data.get("latency_slo"),
    )


def save_trace(trace: Trace, path: str | Path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "trace",
        "name": trace.name,
        "seed": trace.seed,
        "jobs": [job_to_dict(job) for job in trace.jobs],
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_trace(path: str | Path) -> Trace:
    payload = json.loads(Path(path).read_text())
    check_payload(payload, "trace")
    jobs = [job_from_dict(item) for item in payload["jobs"]]
    return Trace(name=payload["name"], jobs=jobs, seed=payload.get("seed", 0))


# -- results -----------------------------------------------------------------

def _record_to_dict(record: JobRecord) -> dict[str, Any]:
    return {
        "job_id": record.job_id,
        "model_name": record.model_name,
        "category": record.category,
        "adaptivity": record.adaptivity,
        "submit_time": record.submit_time,
        "first_start": record.first_start,
        "finish_time": record.finish_time,
        "num_restarts": record.num_restarts,
        "num_preemptions": record.num_preemptions,
        "num_migrations": record.num_migrations,
        "gpu_seconds": dict(record.gpu_seconds),
        "profiling_gpu_seconds": record.profiling_gpu_seconds,
        "avg_contention": record.avg_contention,
        "target_samples": record.target_samples,
    }


def _round_to_dict(record: RoundRecord) -> dict[str, Any]:
    data: dict[str, Any] = {
        "time": record.time,
        "active_jobs": record.active_jobs,
        "running_jobs": record.running_jobs,
        "solve_time": record.solve_time,
        "allocations": {jid: list(alloc)
                        for jid, alloc in record.allocations.items()},
        "gpus_used": dict(record.gpus_used),
    }
    # Robustness telemetry is only written when present, so results from
    # fault-free runs stay byte-compatible with older readers.
    if record.backend:
        data["backend"] = record.backend
    if record.degraded:
        data["degraded"] = True
    if record.fault_events:
        data["fault_events"] = [{
            "kind": e.kind, "time": e.time,
            "target": e.target, "detail": e.detail,
        } for e in record.fault_events]
    if record.metrics:
        data["metrics"] = dict(record.metrics)
    # Decision-level observability (goodput ledger + audit trail) is also
    # written only when present, keeping fault-free pre-ledger results
    # byte-compatible.
    if record.estimates:
        data["estimates"] = dict(record.estimates)
    if record.realized:
        data["realized"] = dict(record.realized)
    if record.throughputs:
        data["throughputs"] = dict(record.throughputs)
    if record.events:
        data["events"] = [e.to_dict() for e in record.events]
    if record.health_events:
        data["health_events"] = [e.to_dict() for e in record.health_events]
    if record.alerts:
        data["alerts"] = [a.to_dict() for a in record.alerts]
    return data


def save_result(result: SimulationResult, path: str | Path, *,
                include_rounds: bool = True) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "result",
        "scheduler_name": result.scheduler_name,
        "cluster_description": result.cluster_description,
        "end_time": result.end_time,
        "censored": result.censored,
        "node_failures": result.node_failures,
        "jobs": [_record_to_dict(record) for record in result.jobs],
        "rounds": [_round_to_dict(record) for record in result.rounds]
        if include_rounds else [],
        # Summaries survive even when per-round records are dropped.
        "fault_counts": result.fault_counts(),
        "backend_counts": result.backend_counts(),
    }
    alert_counts = result.alert_counts()
    if alert_counts:
        payload["alert_counts"] = alert_counts
    if result.final_metrics:
        payload["final_metrics"] = dict(result.final_metrics)
    if result.run_spec:
        payload["run_spec"] = result.run_spec
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_result(path: str | Path) -> SimulationResult:
    payload = json.loads(Path(path).read_text())
    check_payload(payload, "result")
    result = SimulationResult(
        scheduler_name=payload["scheduler_name"],
        cluster_description=payload["cluster_description"],
        end_time=payload["end_time"],
        censored=payload.get("censored", 0),
        node_failures=payload.get("node_failures", 0),
        final_metrics=dict(payload.get("final_metrics", {})),
        saved_fault_counts=payload.get("fault_counts"),
        saved_backend_counts=payload.get("backend_counts"),
        saved_alert_counts=payload.get("alert_counts"),
        run_spec=payload.get("run_spec"),
    )
    for item in payload["jobs"]:
        result.jobs.append(JobRecord(
            job_id=item["job_id"], model_name=item["model_name"],
            category=item["category"], adaptivity=item["adaptivity"],
            submit_time=item["submit_time"], first_start=item["first_start"],
            finish_time=item["finish_time"],
            num_restarts=item["num_restarts"],
            num_preemptions=item.get("num_preemptions", 0),
            num_migrations=item.get("num_migrations", 0),
            gpu_seconds=dict(item["gpu_seconds"]),
            profiling_gpu_seconds=item.get("profiling_gpu_seconds", 0.0),
            avg_contention=item.get("avg_contention", 0.0),
            target_samples=item.get("target_samples", 0.0)))
    for item in payload.get("rounds", []):
        result.rounds.append(RoundRecord(
            time=item["time"], active_jobs=item["active_jobs"],
            running_jobs=item["running_jobs"], solve_time=item["solve_time"],
            allocations={jid: (alloc[0], int(alloc[1]))
                         for jid, alloc in item["allocations"].items()},
            gpus_used={t: int(n) for t, n in item["gpus_used"].items()},
            backend=item.get("backend", ""),
            degraded=item.get("degraded", False),
            fault_events=[FaultEvent(kind=e["kind"], time=e["time"],
                                     target=e["target"],
                                     detail=e.get("detail", ""))
                          for e in item.get("fault_events", [])],
            metrics=dict(item.get("metrics", {})),
            estimates=dict(item.get("estimates", {})),
            realized=dict(item.get("realized", {})),
            throughputs=dict(item.get("throughputs", {})),
            events=[AllocationEvent.from_dict(e)
                    for e in item.get("events", [])],
            health_events=[HealthEvent.from_dict(e)
                           for e in item.get("health_events", [])],
            alerts=[Alert.from_dict(a) for a in item.get("alerts", [])]))
    return result


# -- streamed JSONL artifacts --------------------------------------------------

def load_ledger(path: str | Path,
                ) -> tuple[GoodputLedger, list[AllocationEvent]]:
    """Read a ``--ledger-out`` JSONL file back into a
    :class:`~repro.obs.ledger.GoodputLedger` plus its allocation events."""
    parsed = read_jsonl(path, "ledger", {
        "ledger_entry": LedgerEntry.from_dict,
        "alloc_event": lambda item: AllocationEvent.from_dict(item["event"]),
        "ledger_end": None})
    return GoodputLedger(parsed["ledger_entry"]), parsed["alloc_event"]


def load_alerts(path: str | Path) -> list[Alert]:
    """Read an alerts JSONL file (``--alerts-out``) back into
    :class:`~repro.obs.slo.Alert` objects, in file order."""
    return read_jsonl(path, "alerts", {
        "alert": Alert.from_dict, "alerts_end": None})["alert"]


def load_health_events(path: str | Path,
                       ) -> list[tuple[int, HealthEvent]]:
    """Read a ``--health-events-out`` JSONL file back into
    ``(round_index, HealthEvent)`` pairs, in file order."""
    return read_jsonl(path, "health_events", {
        "health_event": lambda item: (item["round"],
                                      HealthEvent.from_dict(item["event"])),
        "health_events_end": None})["health_event"]


# -- counterfactual run diffs --------------------------------------------------

def save_run_diff(diff: RunDiff, path: str | Path) -> None:
    """Persist a counterfactual :class:`~repro.obs.diff.RunDiff`
    (``repro replay --diff-out``) as JSON; :func:`load_run_diff`
    round-trips it exactly."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "run_diff",
        **diff.to_dict(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2))


def load_run_diff(path: str | Path) -> RunDiff:
    payload = json.loads(Path(path).read_text())
    check_payload(payload, "run_diff")
    return RunDiff.from_dict(payload)

