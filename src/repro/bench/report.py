"""Plain-text rendering of benchmark outputs (tables and curve series).

``ascii_table`` itself lives in :mod:`repro.util.table`; it is re-exported
here for the paper-figure benchmarks.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.util.table import ascii_table

__all__ = ["ascii_table", "format_curve"]


def format_curve(
    curves: Mapping[str, Mapping[int, float]], *, title: str | None = None
) -> str:
    """Render percentile curves as a table: one row per percentile."""
    names = list(curves)
    points = sorted(next(iter(curves.values())).keys())
    headers = ["pct"] + names
    rows = []
    for p in points:
        row = [p] + [
            ("inf" if curves[n][p] == float("inf") else f"{curves[n][p]:.2f}")
            for n in names
        ]
        rows.append(row)
    return ascii_table(headers, rows, title=title)
