"""Plain-text aligned tables, for the CLI, trace summaries and benchmarks."""

from __future__ import annotations

from collections.abc import Sequence


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence], *, title: str | None = None
) -> str:
    """Render a simple aligned table; every cell is str()-ed."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
