"""Markdown report generation from simulation results.

Turns one or more :class:`~repro.sim.telemetry.SimulationResult` objects
(live, or loaded from JSON via :mod:`repro.io`) into a self-contained
markdown report: the Table 3/4-style comparison, per-model GPU-hours
(Figure 6 view), JCT distribution, utilization, and — when the jobs are
available — finish-time fairness.  The CLI exposes this as
``python -m repro report result1.json result2.json``.
"""

from __future__ import annotations

from repro.analysis.render import format_bars
from repro.cluster.cluster import Cluster
from repro.jobs.job import Job
from repro.metrics.fairness import fairness_metrics
from repro.metrics.jct import gpu_hours_by_model, percentile, summarize
from repro.metrics.utilization import average_utilization
from repro.obs.audit import (allocation_persistence, event_counts,
                             migration_flows)
from repro.obs.diff import RunDiff
from repro.obs.export import run_diff_markdown
from repro.obs.ledger import GoodputLedger, queue_wait_by_job
from repro.sim.telemetry import SimulationResult


def _markdown_table(rows: list[dict]) -> str:
    if not rows:
        return "(no data)\n"
    columns = list(rows[0])
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in columns)
                     + " |")
    return "\n".join(lines) + "\n"


def comparison_section(results: list[SimulationResult]) -> str:
    rows = [summarize(result).as_row() for result in results]
    return "## Scheduler comparison\n\n" + _markdown_table(rows)


def jct_section(result: SimulationResult) -> str:
    jcts = result.jcts_hours()
    stats = [
        ("p50", percentile(jcts, 50)),
        ("p90", percentile(jcts, 90)),
        ("p99", percentile(jcts, 99)),
        ("max", max(jcts)),
    ]
    chart = format_bars([(name, value) for name, value in stats],
                        title=f"JCT distribution, hours "
                              f"({result.scheduler_name})")
    return f"```\n{chart}\n```\n"


def gpu_hours_section(result: SimulationResult) -> str:
    by_model = gpu_hours_by_model(result)
    rows = []
    for model, hours in sorted(by_model.items()):
        row = {"model": model}
        for gpu_type, value in sorted(hours.items()):
            row[gpu_type] = round(value, 2)
        rows.append(row)
    # column set can differ per model; normalize
    columns = {"model"}
    for row in rows:
        columns |= set(row)
    ordered = ["model"] + sorted(columns - {"model"})
    rows = [{c: row.get(c, 0.0) for c in ordered} for row in rows]
    return (f"### GPU-hours per job by model ({result.scheduler_name})\n\n"
            + _markdown_table(rows))


def fairness_section(result: SimulationResult, jobs: list[Job],
                     cluster: Cluster) -> str:
    metrics = fairness_metrics(result, jobs, cluster)
    rows = [{
        "scheduler": result.scheduler_name,
        "worst_ftf": round(metrics.worst_ftf, 2),
        "unfair_fraction": round(metrics.unfair_fraction, 3),
    }]
    return "### Finish-time fairness\n\n" + _markdown_table(rows)


def decision_digest_section(result: SimulationResult) -> str:
    """Decision-level observability summary: allocation events by kind,
    per-GPU-type migration flows, early-vs-late goodput-estimation error,
    and the jobs that queued longest.  Empty string when the result carries
    no per-round records (e.g. saved with ``include_rounds=False``)."""
    events = result.allocation_events()
    ledger = GoodputLedger.from_result(result)
    if not events and not ledger.entries:
        return ""
    parts = [f"### Decision digest ({result.scheduler_name})\n"]
    counts = event_counts(events)
    if counts:
        parts.append(_markdown_table([
            {"event": kind, "count": counts[kind]}
            for kind in sorted(counts, key=lambda k: -counts[k])]))
    flows = migration_flows(events)
    if flows:
        parts.append("Migration flows between GPU types:\n")
        parts.append(_markdown_table([
            {"from": src, "to": dst, "migrations": count}
            for (src, dst), count in sorted(flows.items())]))
    persistence = allocation_persistence(result.rounds)
    if persistence is not None:
        parts.append(f"Allocation persistence: {100 * persistence:.1f}% of "
                     "job-allocation pairs carried unchanged into the next "
                     "round (the fraction the solver warm start keeps "
                     "sticky).\n")
    medians = ledger.convergence_medians(num_windows=2)
    if len(medians) == 2:
        early, late = medians
        trend = "shrank" if late <= early else "**grew**"
        parts.append(f"Median goodput-estimation error {trend} from "
                     f"{100 * early:.1f}% (early rounds) to "
                     f"{100 * late:.1f}% (late rounds).\n")
    waits = [(jid, wait) for jid, wait in queue_wait_by_job(result).items()
             if wait > 0]
    if waits:
        waits.sort(key=lambda item: -item[1])
        parts.append("Longest queue waits:\n")
        parts.append(_markdown_table([
            {"job": jid, "queued_hours": round(wait / 3600, 2)}
            for jid, wait in waits[:5]]))
    return "\n".join(parts)


def slo_section(result: SimulationResult) -> str:
    """SLO/alert summary: fired alerts by rule plus the first few alert
    lines with their causal context.  Empty string when the run was not
    SLO-observed (no alerts recorded or persisted)."""
    counts = result.alert_counts()
    if not counts:
        return ""
    parts = [f"### SLO alerts ({result.scheduler_name})\n"]
    parts.append(_markdown_table([
        {"rule": rule, "alerts": counts[rule]}
        for rule in sorted(counts, key=lambda r: -counts[r])]))
    timeline = result.alerts_timeline()
    if timeline:
        shown = timeline[:8]
        parts.append(f"{len(timeline)} alert(s)"
                     + (f" (first {len(shown)} shown)"
                        if len(shown) < len(timeline) else "") + ":\n")
        for index, alert in shown:
            parts.append(f"- round {index} (t={alert.time:.0f}s): "
                         f"{alert.describe()}")
        parts.append("")
    return "\n".join(parts)


def counterfactual_section(diff: RunDiff) -> str:
    """Decision-diff section for a counterfactual replay (``repro report
    ... --diff diff.json``): the rendered RunDiff — overrides, divergence
    point, outcome deltas, and per-round allocation changes."""
    return run_diff_markdown(diff)


def build_report(results: list[SimulationResult], *,
                 title: str = "Simulation report",
                 jobs: list[Job] | None = None,
                 cluster: Cluster | None = None,
                 diffs: list[RunDiff] | None = None) -> str:
    """Assemble the full markdown report.

    ``jobs``/``cluster`` are optional: fairness needs the original job
    objects and cluster, which saved results do not carry.  ``diffs``
    appends one counterfactual decision-diff section per
    :class:`~repro.obs.diff.RunDiff` (from ``repro replay --diff-out``).
    """
    if not results:
        raise ValueError("need at least one result")
    parts = [f"# {title}\n",
             f"Cluster: {results[0].cluster_description}\n",
             comparison_section(results)]
    for result in results:
        parts.append(f"\n## {result.scheduler_name}\n")
        parts.append(jct_section(result))
        parts.append(gpu_hours_section(result))
        if cluster is not None:
            utilization = average_utilization(result, cluster)
            parts.append(f"Average GPU occupancy: "
                         f"{100 * utilization:.1f}%\n")
        if jobs is not None and cluster is not None:
            parts.append(fairness_section(result, jobs, cluster))
        digest = decision_digest_section(result)
        if digest:
            parts.append(digest)
        alerts = slo_section(result)
        if alerts:
            parts.append(alerts)
        if result.censored:
            parts.append(f"**Warning:** {result.censored} job(s) did not "
                         "finish before the simulation cap.\n")
        if result.node_failures:
            parts.append(f"Worker failures injected: "
                         f"{result.node_failures}\n")
    for diff in diffs or []:
        parts.append("")
        parts.append(counterfactual_section(diff))
    return "\n".join(parts)
