"""Model-vs-measured trace summaries.

The paper's central claim is a communication-volume model — every TTM at
a node with output ``Out`` on grid ``g`` moves ``(g_n - 1)|Out|``
elements, every regrid ``|X|``. :func:`modeled_step_volumes` evaluates
that model **per schedule step tag**, and :func:`summarize` joins those
modeled charges against the measured per-step seconds/elements a trace
recorded — the table ``repro trace summarize`` prints.

Step tags repeat across HOOI iterations (``hooi:it0:ttm:n3``,
``hooi:it1:ttm:n3``, ...); :func:`canonical_tag` strips the iteration
prefix so all iterations of one schedule step aggregate on one row, and
the modeled charge is understood *per occurrence*.
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.planner import Plan
from repro.util.table import ascii_table

__all__ = [
    "canonical_tag",
    "format_summary",
    "modeled_step_volumes",
    "summarize",
]

_ITER_PREFIX = re.compile(r"^hooi:it\d+:")


def canonical_tag(tag: str) -> str:
    """Fold per-iteration tags onto their schedule step.

    ``hooi:it2:core:ttm1`` -> ``core:ttm1``; tags without an iteration
    prefix (``sthosvd:svd0``, ``norm:input``) pass through unchanged.
    """
    return _ITER_PREFIX.sub("", tag)


def modeled_step_volumes(plan: Plan) -> dict[str, int]:
    """The paper's per-step communication charges, keyed by canonical tag.

    Tree steps: ``ttm:n{uid}`` carries ``(g_n - 1)|Out(u)|`` and
    ``regrid:n{uid}`` carries ``|In(u)|`` when node ``u``'s grid differs
    from its parent's (0 otherwise — the schedule still emits the step,
    the engine moves ~nothing). Core-chain steps: ``core:ttm{mode}`` and
    ``core:regrid{i}`` under the same model along the chain's partially
    multiplied cardinalities. Sums over these entries reproduce
    ``plan.ttm_volume`` / ``plan.regrid_volume`` /
    ``plan.core_ttm_volume`` / ``plan.core_regrid_volume`` exactly.
    """
    from repro.core.volume import node_volumes

    meta = plan.meta
    out: dict[str, int] = {}
    vols = node_volumes(plan.tree, meta, plan.scheme.assignment)
    for node in plan.tree.internal_nodes():
        if node.kind != "ttm":
            continue
        entry = vols[node.uid]
        out[f"ttm:n{node.uid}"] = int(entry["ttm"])
        out[f"regrid:n{node.uid}"] = int(entry["regrid"])
    # The new-core chain: cardinalities of the partially multiplied
    # tensor shrink as modes are applied in ``core_order``.
    order = tuple(plan.core_order)
    if order:
        cards = [meta.cardinality]
        premult = 0
        for mode in order:
            premult |= 1 << mode
            cards.append(meta.card_after(premult))
        core_scheme = tuple(plan.core_scheme)
        prev_grid = tuple(plan.initial_grid)
        for i, mode in enumerate(order):
            grid = tuple(core_scheme[i]) if core_scheme else prev_grid
            if core_scheme:
                out[f"core:regrid{i}"] = (
                    int(cards[i]) if grid != prev_grid else 0
                )
            out[f"core:ttm{mode}"] = (grid[mode] - 1) * int(cards[i + 1])
            prev_grid = grid
    return out


def summarize(trace) -> list[dict[str, Any]]:
    """Aggregate a trace's step spans per canonical tag.

    Returns one row dict per tag with ``count`` (occurrences), the
    modeled per-occurrence volume (from the trace's embedded
    ``modeled_volumes`` metadata, ``None`` when the tag is outside the
    model — norms, SVDs), and measured totals: ``seconds``, ``elements``
    (communicated), ``bytes`` (elements x working itemsize), ``flops``.
    Rows are ordered by measured seconds, descending.
    """
    itemsize = int(trace.meta.get("itemsize", 8))
    modeled = dict(trace.meta.get("modeled_volumes") or {})
    rows: dict[str, dict[str, Any]] = {}
    for span in trace.spans:
        if span.kind != "step":
            continue
        tag = canonical_tag(span.name)
        row = rows.setdefault(
            tag,
            {
                "tag": tag,
                "count": 0,
                "modeled_elements": modeled.get(tag),
                "seconds": 0.0,
                "elements": 0.0,
                "bytes": 0.0,
                "flops": 0.0,
            },
        )
        row["count"] += 1
        row["seconds"] += span.seconds
        elements = float(span.attrs.get("elements", 0.0) or 0.0)
        row["elements"] += elements
        row["bytes"] += elements * itemsize
        row["flops"] += float(span.attrs.get("flops", 0.0) or 0.0)
    return sorted(rows.values(), key=lambda r: -r["seconds"])


def _fmt_num(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6:
        return f"{value:.3g}"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def format_summary(rows: list[dict[str, Any]], *, title: str | None = None) -> str:
    """Render :func:`summarize` rows as an aligned text table.

    ``model elems`` is the paper's ``(q_n - 1)|Out|`` (or ``|X|`` regrid)
    charge per occurrence; ``meas elems`` is the engine's actual moved
    elements per occurrence, for direct comparison. A ``-`` marks tags
    the volume model does not cover.
    """
    headers = [
        "step tag",
        "n",
        "model elems",
        "meas elems",
        "meas MB",
        "seconds",
    ]
    table_rows = []
    for row in rows:
        count = max(1, int(row["count"]))
        modeled = row["modeled_elements"]
        table_rows.append(
            [
                row["tag"],
                row["count"],
                "-" if modeled is None else _fmt_num(float(modeled)),
                _fmt_num(row["elements"] / count),
                f"{row['bytes'] / 1e6:.3f}",
                f"{row['seconds']:.6f}",
            ]
        )
    return ascii_table(headers, table_rows, title=title)
