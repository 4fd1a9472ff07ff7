"""Zero-dependency observability: tracing, metrics, exporters, summaries.

The package threads through the whole stack without touching the hot
path when disabled:

* :class:`~repro.obs.trace.Tracer` / :data:`~repro.obs.trace.NULL_TRACER`
  — nested spans with monotonic timings; ledger records become step
  spans via the :class:`~repro.dist.stats.StatsLedger` observer hook.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms (percentiles via :mod:`repro.obs.percentiles`).
* :mod:`~repro.obs.export` — Chrome trace-event (Perfetto-loadable) and
  JSON-lines writers with lossless round-trip loaders.
* :mod:`~repro.obs.summarize` — the model-vs-measured per-step table
  behind ``repro trace summarize``.

Enable per session (``TuckerSession(trace=True)``, read
``result.trace``) or per CLI invocation (``repro decompose --trace
out.json``).
"""

from repro.obs.export import (
    load_chrome,
    load_trace,
    read_jsonl,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    safe_rate,
)
from repro.obs.summarize import (
    canonical_tag,
    format_summary,
    modeled_step_volumes,
    summarize,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Trace,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Trace",
    "Tracer",
    "canonical_tag",
    "format_summary",
    "load_chrome",
    "load_trace",
    "modeled_step_volumes",
    "read_jsonl",
    "safe_rate",
    "summarize",
    "to_chrome",
    "to_jsonl",
    "write_chrome",
    "write_jsonl",
]
