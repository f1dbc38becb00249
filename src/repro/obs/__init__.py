"""repro.obs — observability: tracing, metrics, and EXPLAIN ANALYZE.

Two independent cores:

* :mod:`repro.obs.trace` — per-query span trees with contextvar
  propagation on the driver, picklable ``(trace_id, span_id)`` contexts
  across the RPC shard boundary, a bounded :class:`TraceSink`, and
  Chrome trace-event export.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters /
  gauges / fixed-bucket histograms with Prometheus text exposition.

The service wires both up (``ServiceConfig.tracing``,
``QueryService.explain_analyze`` / ``trace`` / ``render_prometheus``);
everything here is importable and usable standalone.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    SpanAccumulator,
    SpanRef,
    Trace,
    TraceSink,
    activate,
    attach_worker_spans,
    record_remote,
    resolve,
    span,
    trace_ctx,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanAccumulator",
    "SpanRef",
    "Trace",
    "TraceSink",
    "activate",
    "attach_worker_spans",
    "record_remote",
    "resolve",
    "span",
    "trace_ctx",
]
