"""Server-level metrics, wired through the PR-6 observability layer.

One :class:`ServerStats` per server, backed by a
:class:`~repro.obs.metrics.MetricsRegistry` — the same instrument kinds
(and the same percentile semantics) the session layer and trace
summaries use, so a serving dashboard and a run's metrics quote
comparable numbers. :meth:`snapshot` is the JSON payload behind the protocol's
``{"op": "stats"}`` and the CLI's shutdown report.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry, safe_rate

__all__ = ["ServerStats"]


class ServerStats:
    """Counters/gauges/latency histograms for one serving process."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._started = time.monotonic()

    # -- recording (hot path: one counter bump per event) ----------------- #

    def submitted(self) -> None:
        self.registry.counter("serve_submitted").inc()

    def shed(self, reason: str) -> None:
        self.registry.counter("serve_shed").inc()
        self.registry.counter(f"serve_shed:{reason}").inc()

    def completed(self, *, seconds: float, wall_seconds: float) -> None:
        self.registry.counter("serve_completed").inc()
        self.registry.histogram("serve_run_seconds").observe(seconds)
        self.registry.histogram("serve_latency_seconds").observe(wall_seconds)

    def failed(self, kind: str) -> None:
        self.registry.counter("serve_failed").inc()
        self.registry.counter(f"serve_failed:{kind}").inc()

    def cancelled(self) -> None:
        self.registry.counter("serve_cancelled").inc()

    def deadline_missed(self) -> None:
        self.registry.counter("serve_deadline_missed").inc()

    def queue_depth(self, depth: int) -> None:
        self.registry.gauge("serve_queue_depth").set(float(depth))

    def prefetched(self, nbytes: int) -> None:
        if nbytes:
            self.registry.counter("serve_prefetch_bytes").inc(nbytes)

    # -- reporting --------------------------------------------------------- #

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def snapshot(
        self, *, admission: dict | None = None, affinity: dict | None = None
    ) -> dict:
        """The JSON stats payload (all rates via :func:`safe_rate`)."""
        counters = self.registry.snapshot()["counters"]
        completed = counters.get("serve_completed", 0.0)
        latency = self.registry.histogram("serve_latency_seconds")
        pct = latency.percentiles((50.0, 90.0, 99.0))
        out = {
            "elapsed_seconds": self.elapsed,
            "submitted": counters.get("serve_submitted", 0.0),
            "completed": completed,
            "failed": counters.get("serve_failed", 0.0),
            "shed": counters.get("serve_shed", 0.0),
            "cancelled": counters.get("serve_cancelled", 0.0),
            "deadline_missed": counters.get("serve_deadline_missed", 0.0),
            "queue_depth": self.registry.gauge("serve_queue_depth").value,
            "queue_depth_peak": self.registry.gauge("serve_queue_depth").peak,
            "items_per_second": safe_rate(completed, self.elapsed),
            "latency_p50": pct[50.0],
            "latency_p90": pct[90.0],
            "latency_p99": pct[99.0],
            "prefetch_bytes": counters.get("serve_prefetch_bytes", 0.0),
        }
        if admission is not None:
            out["admission"] = admission
        if affinity is not None:
            out["affinity"] = affinity
        return out
