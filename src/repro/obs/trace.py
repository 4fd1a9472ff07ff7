"""Span tracing with monotonic timings.

The tracer is the observability layer's core primitive: a :class:`Tracer`
produces nested :class:`Span` records (``compile``, ``distribute``, one
span per schedule :class:`~repro.backends.schedule.Step` keyed by its
ledger tag, spill reads/writes, procpool worker fragments) with
``perf_counter`` timings and free-form attributes (bytes moved, FLOPs,
block counts).

Design points:

* **Off by default, near-zero overhead.** Code paths hold a tracer
  reference unconditionally and call it unconditionally; when tracing is
  disabled that reference is :data:`NULL_TRACER`, whose ``span()`` returns
  a shared no-op context manager and whose every other method is a
  constant-return stub — no allocation, no branching at call sites.
* **Step spans mirror the ledger.** Backends already account every
  kernel and collective in their :class:`~repro.dist.stats.StatsLedger`;
  the tracer plugs into the ledger's ``observer`` hook and converts each
  :class:`~repro.dist.stats.Record` into a retroactive leaf span named
  exactly by the record's tag. The span step-tag set therefore equals the
  ledger tag set *by construction*, on every backend — golden-ledger
  configs are golden-trace configs too.
* **Scoped like the ledger.** ``mark()`` / ``drain(mark)`` mirror
  ``StatsLedger.mark`` / ``since``: a long-lived session tracer serves
  many runs, each run slicing out exactly its own spans.
* **Cross-process spans are safe on Linux.** ``perf_counter`` is
  ``CLOCK_MONOTONIC``, shared across processes, so worker fragments
  shipped back by forked procpool workers land on the same timeline as
  parent spans.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Trace",
    "Tracer",
]


# Span kinds — `step` is reserved for ledger-derived spans so tag-set
# comparisons against the ledger never see phase/io/worker spans.
KINDS = ("phase", "step", "io", "worker")


@dataclass
class SpanEvent:
    """An instantaneous, timestamped marker inside a span."""

    name: str
    t: float
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One timed interval on the trace timeline.

    ``sid`` is unique within its tracer; ``parent`` is the enclosing
    span's sid (``None`` for roots). ``kind`` is one of ``"phase"``
    (session-level stages: run, compile, distribute, sthosvd,
    ``hooi:itN``...), ``"step"`` (ledger-derived, named exactly by the
    ledger tag), ``"io"`` (spill store reads/writes), or ``"worker"``
    (procpool worker fragments).
    """

    sid: int
    name: str
    kind: str
    start: float
    end: float
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    """The shared no-op returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def seconds(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a constant-return no-op.

    Instrumented code holds a tracer unconditionally; pointing it here
    keeps the hot path free of ``if tracing:`` branches and allocations.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        kind: str = "phase",
        parent: int | None = None,
        **attrs: Any,
    ) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def on_record(self, record) -> None:
        pass

    def mark(self) -> int:
        return 0

    def drain(self, mark: int = 0) -> "Trace":
        return Trace(spans=())


NULL_TRACER = NullTracer()


class _ActiveSpan:
    """Context manager binding one open :class:`Span` to its tracer.

    ``__exit__`` always closes and records the span — an exception inside
    the body stamps an ``error`` attribute instead of losing the span, so
    partial traces survive crashes (a procpool worker death mid-kernel
    still leaves the enclosing phase span in the trace).
    """

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = perf_counter()
        if exc_type is not None:
            self.span.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self.span)
        return False


class Tracer:
    """Records nested spans on a single monotonic timeline.

    Spans land in completion order (a parent closes after its children).
    The open-span stack is per-tracer, guarded by a lock: helper threads
    (out-of-core block readers) may add spans and events concurrently
    with the main thread; their retroactive spans parent onto whatever
    span is currently open, which is exactly the enclosing kernel.
    """

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._next_sid = 0

    enabled = True

    # -- recording -------------------------------------------------------- #

    def _new_sid(self) -> int:
        self._next_sid += 1
        return self._next_sid

    def _push(self, span: Span) -> None:
        with self._lock:
            self._stack.append(span)

    def _pop(self, span: Span) -> None:
        with self._lock:
            # Identity, not equality: dataclass == could match a sibling
            # span with identical fields.
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i] is span:
                    del self._stack[i]
                    break
            self._spans.append(span)

    def span(self, name: str, kind: str = "phase", **attrs: Any) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        with self._lock:
            parent = self._stack[-1].sid if self._stack else None
            sid = self._new_sid()
        return _ActiveSpan(
            self,
            Span(
                sid=sid,
                name=name,
                kind=kind,
                start=0.0,
                end=0.0,
                parent=parent,
                attrs=dict(attrs),
            ),
        )

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        kind: str = "phase",
        parent: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-timed span (ledger records, worker fragments).

        ``parent`` defaults to the currently open span.
        """
        with self._lock:
            if parent is None and self._stack:
                parent = self._stack[-1].sid
            span = Span(
                sid=self._new_sid(),
                name=name,
                kind=kind,
                start=start,
                end=end,
                parent=parent,
                attrs=dict(attrs),
            )
            self._spans.append(span)
            return span

    def event(self, name: str, **attrs: Any) -> None:
        """Attach an instant event to the innermost open span.

        Outside any span the event is dropped: the ``select:backend``
        event of a standalone ``compile()`` of an auto session, for one,
        is recorded nowhere.
        """
        evt = SpanEvent(name=name, t=perf_counter(), attrs=dict(attrs))
        with self._lock:
            if self._stack:
                self._stack[-1].events.append(evt)

    def on_record(self, record) -> None:
        """The :class:`~repro.dist.stats.StatsLedger` observer hook.

        Converts one ledger :class:`~repro.dist.stats.Record` into a
        retroactive leaf span named by the record's tag. The record is
        appended right after its kernel finished, so ``now - seconds``
        reconstructs the start; simcluster records *modeled* seconds, so
        its step spans show modeled critical-path time on the wall-clock
        timeline (documented, intentional — the ledger is the source of
        truth for what a step cost).
        """
        now = perf_counter()
        self.add_span(
            record.tag,
            now - record.seconds,
            now,
            kind="step",
            category=record.category,
            op=record.op,
            group_size=record.group_size,
            elements=record.elements,
            flops=record.flops,
        )

    # -- scoping ---------------------------------------------------------- #

    def mark(self) -> int:
        """Opaque position marker for :meth:`drain` (mirrors the ledger)."""
        with self._lock:
            return len(self._spans)

    def drain(self, mark: int = 0) -> "Trace":
        """Slice out (and remove) every span recorded after ``mark``."""
        with self._lock:
            spans = tuple(self._spans[mark:])
            del self._spans[mark:]
        return Trace(spans=spans)


# --------------------------------------------------------------------- #
# the drained, immutable result
# --------------------------------------------------------------------- #


@dataclass
class Trace:
    """A drained collection of spans plus run-level metadata.

    ``meta`` carries whatever the producer attached — the session stores
    the backend name, working dtype itemsize, modeled per-step volumes
    (the paper's ``(q_n-1)|Out|`` charges) and a metrics snapshot, so a
    saved trace is self-contained for ``repro trace summarize``.
    """

    spans: tuple[Span, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def seconds(self) -> float:
        """Wall span of the whole trace (max end - min start)."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def roots(self) -> list[Span]:
        """Spans whose parent is absent from this trace (top-level)."""
        sids = {s.sid for s in self.spans}
        return [s for s in self.spans if s.parent not in sids]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def step_tags(self) -> set[str]:
        """The set of ledger tags this trace observed (``kind="step"``)."""
        return {s.name for s in self.spans if s.kind == "step"}

    def validate(self) -> None:
        """Structural invariants: raises ``AssertionError`` on violation.

        Every span has non-negative duration, a known kind, a unique sid,
        and — when its parent is present in the trace — starts and ends
        within the parent's interval (small slack for retroactive step
        spans whose ledger-recorded seconds include sub-``perf_counter``
        bookkeeping around the kernel).
        """
        sids: dict[int, Span] = {}
        for s in self.spans:
            assert s.kind in KINDS, f"span {s.name!r}: unknown kind {s.kind!r}"
            assert s.end >= s.start, f"span {s.name!r}: negative duration"
            assert s.sid not in sids, f"duplicate sid {s.sid}"
            sids[s.sid] = s
        slack = 1e-4
        for s in self.spans:
            parent = sids.get(s.parent) if s.parent is not None else None
            if parent is None:
                continue
            assert s.start >= parent.start - slack, (
                f"span {s.name!r} starts before parent {parent.name!r}"
            )
            assert s.end <= parent.end + slack, (
                f"span {s.name!r} ends after parent {parent.name!r}"
            )

    @classmethod
    def merge(cls, traces: Iterable["Trace"]) -> "Trace":
        """Concatenate traces onto one timeline (batch = root + items).

        Sids are remapped to stay unique; parents follow. ``meta`` maps
        merge first-wins per key, so the batch root's metadata dominates.
        """
        spans: list[Span] = []
        meta: dict[str, Any] = {}
        offset = 0
        for trace in traces:
            remap = {s.sid: s.sid + offset for s in trace.spans}
            for s in trace.spans:
                spans.append(
                    Span(
                        sid=remap[s.sid],
                        name=s.name,
                        kind=s.kind,
                        start=s.start,
                        end=s.end,
                        parent=remap.get(s.parent) if s.parent is not None else None,
                        attrs=dict(s.attrs),
                        events=list(s.events),
                    )
                )
            if trace.spans:
                offset = max(s.sid for s in spans)
            for key, value in trace.meta.items():
                meta.setdefault(key, value)
        return cls(spans=tuple(spans), meta=meta)

    # -- persistence (delegates to repro.obs.export) ----------------------- #

    def save(self, path: str) -> None:
        """Write this trace to ``path`` as Chrome trace-event JSON
        (loadable in Perfetto / ``chrome://tracing``), whatever the
        extension."""
        from repro.obs.export import write_chrome

        write_chrome(self, path)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace written by :meth:`save`."""
        from repro.obs.export import load_trace

        return load_trace(path)
