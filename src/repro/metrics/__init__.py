"""Metrics: FCTs, slowdowns, percentiles, mergeable digests and reports."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "percentile": "repro.metrics.stats",
    "MetricSummary": "repro.metrics.stats",
    "QuantileDigest": "repro.metrics.sketch",
    "merge_digest_dicts": "repro.metrics.sketch",
    "GroupStats": "repro.metrics.collector",
    "MetricsCollector": "repro.metrics.collector",
    "format_aggregate_table": "repro.metrics.report",
    "format_incast_table": "repro.metrics.report",
    "format_metric_table": "repro.metrics.report",
    "format_ratio_table": "repro.metrics.report",
    "format_tail_cdf": "repro.metrics.report",
    "load_cached_rows": "repro.metrics.report",
})
