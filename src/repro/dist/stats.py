"""Ledger of communication and computation events.

Every collective executed by :class:`repro.dist.comm.SimCluster` and every
modeled compute kernel appends a :class:`Record`. The benchmark harness then
aggregates volumes and modeled times per *tag* — tags follow a
``"component:detail"`` convention, e.g. ``"ttm:mode3"``, ``"regrid:node7"``,
``"svd:gram"``, ``"core:chain"``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class Record:
    """One communication or computation event.

    Attributes
    ----------
    category: ``"comm"`` or ``"compute"``.
    op: operation name (``"reduce_scatter"``, ``"alltoallv"``, ``"gemm"``...).
    tag: caller-supplied label for aggregation.
    group_size: number of ranks participating (1 for compute).
    elements: total elements moved across the group (0 for compute). This is
        the paper's "communication volume" unit.
    flops: total multiply-adds (0 for comm).
    seconds: modeled critical-path time of the event.
    """

    category: str
    op: str
    tag: str
    group_size: int = 1
    elements: float = 0.0
    flops: float = 0.0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.category not in ("comm", "compute"):
            raise ValueError(f"bad category {self.category!r}")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.elements < 0 or self.flops < 0 or self.seconds < 0:
            raise ValueError("elements/flops/seconds must be non-negative")


class StatsLedger:
    """Append-only list of :class:`Record` with aggregation helpers.

    ``observer``, when set, is called with every record as it is
    appended — the hook the tracing layer (:mod:`repro.obs`) uses to
    mirror ledger events as spans without touching any recording call
    site. Observers see live appends only: :meth:`merge` copies records
    that were already observed (or deliberately not) at their origin.

    Appends, :meth:`mark` and :meth:`since` are thread-safe: concurrent
    serving workers share warm backends, and per-run scoping relies on
    mark/slice positions staying consistent under concurrent appends.
    (Scoping one run's records still requires the runs themselves not to
    interleave on one ledger — the session serializes execution per
    backend; the lock keeps the bookkeeping itself uncorrupted.)
    """

    def __init__(self) -> None:
        self._records: list[Record] = []
        self._lock = threading.Lock()
        self.observer: Callable[[Record], None] | None = None

    # -- recording ------------------------------------------------------ #

    def add(self, record: Record) -> None:
        with self._lock:
            self._records.append(record)
            observer = self.observer
        if observer is not None:
            observer(record)

    def add_comm(
        self, op: str, tag: str, group_size: int, elements: float, seconds: float
    ) -> None:
        self.add(
            Record(
                category="comm",
                op=op,
                tag=tag,
                group_size=group_size,
                elements=elements,
                seconds=seconds,
            )
        )

    def add_compute(self, op: str, tag: str, flops: float, seconds: float) -> None:
        self.add(
            Record(category="compute", op=op, tag=tag, flops=flops, seconds=seconds)
        )

    # -- access ---------------------------------------------------------- #

    @property
    def records(self) -> tuple[Record, ...]:
        with self._lock:
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def merge(self, other: "StatsLedger") -> None:
        """Append all records of ``other`` (used when composing phases)."""
        records = other.records  # snapshot outside our lock (no deadlock)
        with self._lock:
            self._records.extend(records)

    def mark(self) -> int:
        """Opaque position marker for :meth:`since` (the current length)."""
        with self._lock:
            return len(self._records)

    def since(self, mark: int) -> "StatsLedger":
        """A new ledger holding only the records appended after ``mark``.

        This is how callers scope a shared, append-only ledger to one run:
        take a :meth:`mark` before executing, slice after. The records are
        shared (they are immutable), the list is not.
        """
        out = StatsLedger()
        with self._lock:
            out._records.extend(self._records[mark:])
        return out

    # -- aggregation ----------------------------------------------------- #

    def _select(
        self,
        category: str | None = None,
        op: str | None = None,
        tag_prefix: str | None = None,
    ) -> Iterable[Record]:
        for r in self.records:  # snapshot: aggregation under live appends
            if category is not None and r.category != category:
                continue
            if op is not None and r.op != op:
                continue
            if tag_prefix is not None and not r.tag.startswith(tag_prefix):
                continue
            yield r

    def volume(self, op: str | None = None, tag_prefix: str | None = None) -> float:
        """Total communication volume (elements) over matching records."""
        return sum(r.elements for r in self._select("comm", op, tag_prefix))

    def flops(self, tag_prefix: str | None = None) -> float:
        """Total multiply-adds over matching compute records."""
        return sum(r.flops for r in self._select("compute", None, tag_prefix))

    def comm_seconds(
        self, op: str | None = None, tag_prefix: str | None = None
    ) -> float:
        return sum(r.seconds for r in self._select("comm", op, tag_prefix))

    def compute_seconds(self, tag_prefix: str | None = None) -> float:
        return sum(r.seconds for r in self._select("compute", None, tag_prefix))

    def total_seconds(self, tag_prefix: str | None = None) -> float:
        return sum(r.seconds for r in self._select(None, None, tag_prefix))

    def summary(self) -> dict[str, float]:
        """The uniform aggregate every backend reports via ``stats()``."""
        return {
            "comm_volume": self.volume(),
            "flops": self.flops(),
            "comm_seconds": self.comm_seconds(),
            "compute_seconds": self.compute_seconds(),
            "events": float(len(self)),
        }
