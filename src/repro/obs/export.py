"""Trace file format: Chrome trace-event JSON.

The format follows the trace-event spec's "JSON object format": a
top-level object with ``traceEvents`` (one complete ``"X"`` event per
span, microsecond timestamps relative to the trace epoch) plus
``otherData`` carrying the trace's run-level metadata. The files load
directly in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.

Round-tripping is lossless: each event's ``args`` carries the span's
sid/parent/kind/attrs *and* its full-precision ``t0``/``t1`` (Chrome's
integer-microsecond ``ts``/``dur`` would otherwise truncate
``perf_counter`` resolution), so ``load_trace(write_chrome(t)) == t``
up to dataclass equality. It is the one format :meth:`Trace.save`
writes and :func:`load_trace` reads.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.trace import Span, SpanEvent, Trace

__all__ = ["load_trace", "to_chrome", "write_chrome"]

# Lane assignment: Perfetto draws one track per (pid, tid). Main-process
# spans nest on their kind's lane; worker spans land on a per-worker-pid
# lane so pool fan-outs render as parallel tracks.
_TIDS = {"phase": 1, "step": 2, "io": 3, "worker": 4}


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / tuples into plain JSON types."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item") and callable(value.item):
        try:
            return value.item()
        except (TypeError, ValueError):
            return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_chrome(trace: Trace) -> dict[str, Any]:
    """Build the Chrome trace-event JSON object for ``trace``."""
    epoch = min((s.start for s in trace.spans), default=0.0)
    events: list[dict[str, Any]] = []
    for span in trace.spans:
        args = {
            "sid": span.sid,
            "parent": span.parent,
            "kind": span.kind,
            "t0": span.start,
            "t1": span.end,
        }
        args.update(_jsonable(span.attrs))
        tid = _TIDS.get(span.kind, 1)
        if span.kind == "worker" and "pid" in span.attrs:
            tid = 1000 + int(span.attrs["pid"]) % 1000
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
        for evt in span.events:
            events.append(
                {
                    "name": evt.name,
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": (evt.t - epoch) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": dict(
                        _jsonable(evt.attrs), span=span.sid, t=evt.t
                    ),
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": _jsonable(dict(trace.meta)),
    }


def write_chrome(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome(trace), fh)
        fh.write("\n")


def load_trace(path: str) -> Trace:
    """Reconstruct a :class:`Trace` from a Chrome trace-event file.

    A file that is not one (not JSON, or JSON without ``traceEvents``)
    raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return from_chrome(doc)


def from_chrome(doc: dict[str, Any]) -> Trace:
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace-event document")
    spans: dict[int, Span] = {}
    pending_events: list[dict[str, Any]] = []
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "X":
            args = dict(event.get("args") or {})
            sid = int(args.pop("sid"))
            parent = args.pop("parent", None)
            kind = args.pop("kind", event.get("cat", "phase"))
            t0 = float(args.pop("t0"))
            t1 = float(args.pop("t1"))
            spans[sid] = Span(
                sid=sid,
                name=event["name"],
                kind=kind,
                start=t0,
                end=t1,
                parent=int(parent) if parent is not None else None,
                attrs=args,
            )
        elif event.get("ph") == "i":
            pending_events.append(event)
    for event in pending_events:
        args = dict(event.get("args") or {})
        sid = args.pop("span", None)
        t = args.pop("t", None)
        if sid is not None and int(sid) in spans and t is not None:
            spans[int(sid)].events.append(
                SpanEvent(name=event["name"], t=float(t), attrs=args)
            )
    ordered = tuple(spans[sid] for sid in sorted(spans))
    return Trace(spans=ordered, meta=dict(doc.get("otherData") or {}))
