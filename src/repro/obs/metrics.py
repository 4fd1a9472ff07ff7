"""Counters, gauges and histograms for the observability layer.

A :class:`MetricsRegistry` is a named bag of three instrument kinds:

* :class:`Counter` — monotonically increasing totals (plan-cache hits,
  spill I/O bytes, runs executed);
* :class:`Gauge` — last-written values with a retained high-water mark
  (:class:`~repro.storage.store.ResidentGauge` peak, pool utilization);
* :class:`Histogram` — exact count/total over every observed sample
  and percentile summaries over a bounded window of the most recent
  ones (per-step seconds), computed by the same
  :func:`repro.obs.percentiles.percentile_curve` the paper's figure
  reproductions use, so trace summaries and figure tables quote
  identical percentile semantics.

Instruments are created on first use (``registry.counter("x").inc()``)
and are thread-safe: out-of-core helper threads bump spill counters
concurrently with the main thread.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Sequence

from repro.obs.percentiles import percentile_curve

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "safe_rate"]

DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)

#: samples a :class:`Histogram` retains for its percentiles; a serving
#: process observes one per request forever, so the window is what keeps
#: its memory flat.
HISTOGRAM_WINDOW = 4096


def safe_rate(count: float, seconds: float) -> float:
    """``count / seconds`` that can never raise or report ``inf``/``nan``.

    Throughput reports divide by wall seconds derived from root spans;
    a zero-duration span (sub-tick run) or a crash-truncated trace
    (seconds 0, negative, or non-finite) must degrade to a 0.0 rate in
    the JSON payload, not poison it. Used by batch and serving stats.
    """
    try:
        count = float(count)
        seconds = float(seconds)
    except (TypeError, ValueError):
        return 0.0
    if not math.isfinite(count) or not math.isfinite(seconds) or seconds <= 0.0:
        return 0.0
    rate = count / seconds
    return rate if math.isfinite(rate) else 0.0


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-written value that remembers its high-water mark."""

    __slots__ = ("name", "_value", "_peak", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if value > self._peak:
                self._peak = float(value)

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)
            if value > self._peak:
                self._peak = float(value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        return self._peak


class Histogram:
    """Observed samples with count/total/percentile summaries.

    ``count``, ``total`` and the summary's ``mean`` are exact running
    sums over every sample ever observed; the percentiles cover only
    the most recent :data:`HISTOGRAM_WINDOW` samples, so a long-lived
    process holds a bounded number of floats per histogram.
    """

    __slots__ = ("name", "_count", "_total", "_recent", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._total = 0.0
        self._recent: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    def percentiles(
        self, points: Sequence[float] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """``{percentile: value}`` over the retained (most recent) samples."""
        with self._lock:
            recent = list(self._recent)
        if not recent:
            return {float(p): 0.0 for p in points}
        curve = percentile_curve(recent, points)
        return {float(p): float(v) for p, v in curve.items()}

    def summary(self) -> dict[str, float]:
        with self._lock:
            count, total = self._count, self._total
        if not count:
            return {"count": 0.0, "total": 0.0, "mean": 0.0}
        out = {
            "count": float(count),
            "total": float(total),
            "mean": float(total / count),
        }
        out.update(
            {f"p{p:g}": v for p, v in self.percentiles().items()}
        )
        return out


class MetricsRegistry:
    """A named collection of instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name)
            return inst

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict dump (JSON-serializable) of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {
                n: {"value": g.value, "peak": g.peak}
                for n, g in sorted(gauges.items())
            },
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
