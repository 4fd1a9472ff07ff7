"""Percentile curves: the summary the paper's Figures 10-11 plot.

"Normalized time of t on percentile value k means that for k% of tensors
the normalized execution time is less than t." — i.e. the empirical
quantile function, which :func:`percentile_curve` computes. It lives in
``repro.obs`` because :class:`~repro.obs.metrics.Histogram` summaries
and the figure reproductions in ``benchmarks/`` must quote the same
percentile semantics, and a metrics snapshot in a serving process must
not load the ``repro.bench`` package to get them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def percentile_curve(
    values: Sequence[float], points: Sequence[int] = tuple(range(0, 101, 10))
) -> dict[int, float]:
    """Empirical quantiles of ``values`` at the given percentile points.

    Infinities (communication-free baselines) are kept: they sort last, so
    low percentiles stay finite and informative.
    """
    srt = np.sort(np.asarray(list(values), dtype=np.float64))  # inf sorts last
    if srt.size == 0:
        raise ValueError("values must be non-empty")
    out: dict[int, float] = {}
    for p in points:
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of [0, 100]")
        idx = int(round(p / 100 * (srt.size - 1)))
        val = srt[min(idx, srt.size - 1)]
        out[p] = float(val) if np.isfinite(val) else float("inf")
    return out


def curve_summary(values: Sequence[float]) -> dict[str, float]:
    """Min / median / max of a ratio distribution (paper-style headlines)."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    finite = arr[np.isfinite(arr)]
    src = finite if finite.size else arr
    return {
        "min": float(src[0]),
        "median": float(np.median(src)),
        "max": float(src[-1]),
    }
