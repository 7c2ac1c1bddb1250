"""Evaluation metrics: JCT statistics, finish-time fairness, utilization."""

from repro.metrics.fairness import (FairnessMetrics, fairness_metrics,
                                    ftf_ratio, isolated_jct)
from repro.metrics.jct import (SummaryMetrics, gpu_hours_by_model,
                               percentile, summarize)
from repro.metrics.utilization import average_utilization

__all__ = [
    "FairnessMetrics", "fairness_metrics", "ftf_ratio", "isolated_jct",
    "SummaryMetrics", "gpu_hours_by_model", "percentile", "summarize",
    "average_utilization",
]
