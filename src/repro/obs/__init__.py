"""repro.obs — dependency-free observability: spans, metrics, exporters.

* :mod:`repro.obs.tracer`  — :class:`Tracer` (nestable spans, instant
  events) and the near-zero-cost :data:`NULL_TRACER` default.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters, gauges,
  and histograms, snapshotted once at the end of a run.
* :mod:`repro.obs.export`  — Chrome/Perfetto ``trace_event`` JSON, JSONL
  event logs, and human-readable digests.
* :mod:`repro.obs.ledger`  — per-job goodput ledger: estimated vs realized
  goodput per round, estimation-error series, queue-wait attribution.
* :mod:`repro.obs.audit`   — decision audit trail: classified
  allocation-change events (admit/scale/migrate/preempt/resume/finish).
* :mod:`repro.obs.diff`    — cross-run decision diff: align two futures of
  one run (:class:`RunDiff`, divergence detection, ledger alignment) for
  the counterfactual replay engine.
* :mod:`repro.obs.window`  — bounded-work online aggregates: rolling
  percentile windows and rates over per-round series.
* :mod:`repro.obs.slo`     — declarative SLO rules evaluated live each
  round, firing :class:`Alert` events with ledger/audit/health-backed
  causal context (burn-rate semantics).
* :mod:`repro.obs.stream`  — the streaming exporters: the one writer
  (incremental JSONL with atomic finalize) and one reader of each JSONL
  artifact, and Prometheus text exposition.

Attach a tracer to a simulation via ``SimulatorConfig(tracer=Tracer())``
(the CLI's ``--trace-out``/``--events-out`` do this for you), then read
``SimulationResult.spans`` / ``phase_time_breakdown()`` (or
:func:`repro.obs.tracer.span_stats` over the spans) or export with :func:`repro.obs.export.write_chrome_trace`.
"""

from repro.obs.audit import (AllocationEvent, classify_change, event_counts,
                             events_for_job, migration_flows)
from repro.obs.diff import (AllocDelta, DivergencePoint, MetricDelta,
                            RoundDelta, RunDiff, aligned_ledger_deltas,
                            compare_runs, fault_recovery_seconds)
from repro.obs.export import (alert_digest, chrome_trace, read_events_jsonl,
                              run_diff_markdown, run_digest, span_digest,
                              validate_chrome_trace, write_chrome_trace)
from repro.obs.ledger import (GoodputLedger, LedgerEntry, queue_wait_by_job,
                              round_entries)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               interpolated_quantile)
from repro.obs.slo import (Alert, SLOEngine, SLORule, default_rules,
                           evaluate_result, parse_rules)
from repro.obs.stream import (AlertStreamObserver, EventStreamObserver,
                              HealthEventStreamObserver, JsonlStreamWriter,
                              LedgerStreamObserver, PrometheusSnapshotObserver,
                              RoundObserver, SLOObserver,
                              parse_prometheus_text, prometheus_text)
from repro.obs.tracer import (NULL_TRACER, PLAN_PHASES, ROUND_PHASES,
                              NullTracer, SpanRecord, SpanStats, Tracer)
from repro.obs.window import RollingRate, RollingWindow

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "PLAN_PHASES", "ROUND_PHASES",
    "SpanRecord", "SpanStats",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "read_events_jsonl", "span_digest", "run_digest",
    "alert_digest",
    "GoodputLedger", "LedgerEntry", "queue_wait_by_job",
    "AllocationEvent", "classify_change", "event_counts",
    "events_for_job", "migration_flows",
    "AllocDelta", "DivergencePoint", "MetricDelta", "RoundDelta", "RunDiff",
    "aligned_ledger_deltas", "compare_runs", "fault_recovery_seconds",
    "run_diff_markdown",
    "interpolated_quantile", "round_entries",
    "RollingWindow", "RollingRate",
    "Alert", "SLORule", "SLOEngine", "default_rules", "parse_rules",
    "evaluate_result",
    "RoundObserver", "JsonlStreamWriter", "EventStreamObserver",
    "LedgerStreamObserver", "AlertStreamObserver",
    "HealthEventStreamObserver", "SLOObserver", "PrometheusSnapshotObserver",
    "prometheus_text", "parse_prometheus_text",
]
