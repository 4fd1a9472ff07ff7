"""The serving front door: bounded admission over a pool of workers.

:class:`TuckerServer` turns the batch-era session into a long-lived
service. Each request is validated, shed fast when the server is full
or draining (:class:`~repro.serve.admission.AdmissionError`), put on
one FIFO queue that every worker drains as soon as it is free, and
executed under the global memory budget while the OS reads the next
queued ``.npy`` input ahead (one advisory call, no thread). ``submit``
returns a :class:`~repro.serve.request.Ticket` future; ``drain`` is the
graceful end: finish everything in flight, reject newcomers, tear the
worker sessions (and their spill artifacts) down.
"""

from __future__ import annotations

import logging
import queue
import threading

from repro.core.planner import TREE_KINDS
from repro.obs import MetricsRegistry
from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.request import ServeRequest, Ticket, parse_request
from repro.serve.stats import ServerStats
from repro.serve.worker import ServeWorker
from repro.session import TuckerSession
from repro.util.validation import check_core_dims, check_positive_int

__all__ = ["TuckerServer"]

logger = logging.getLogger(__name__)

DEFAULT_MAX_QUEUE = 64


class TuckerServer:
    """A concurrent decomposition service over private worker sessions.

    Parameters
    ----------
    workers: number of worker threads, each owning a full
        :class:`~repro.session.TuckerSession` (backend pools included).
    backend / n_procs / planner / storage / spill_dir / spill_codec /
        trace: forwarded
        to every worker session — ``n_procs`` is *per worker*; size it so
        ``workers x n_procs`` fits the machine.
    memory_budget: global working-set budget across all workers. Each
        request charges ``min(its bytes, budget)`` while it executes;
        requests that don't fit wait their turn (or their deadline). The
        same budget reaches the worker sessions, so an individually
        oversized tensor runs spilled with bounded resident bytes.
    max_queue: bound on queued-plus-running requests; past it ``submit``
        sheds with :class:`AdmissionError` (``reason="queue_full"``).
    deadline: default per-request deadline (seconds from submission),
        applied to requests that don't carry their own.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        backend: str = "auto",
        n_procs: int | None = None,
        planner: str = "portfolio",
        memory_budget: int | str | None = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        storage: str = "auto",
        spill_dir: str | None = None,
        spill_codec: str = "raw",
        deadline: float | None = None,
        trace: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        workers = check_positive_int(workers, "workers")
        self.max_queue = check_positive_int(max_queue, "max_queue")
        if planner != "portfolio" and planner not in TREE_KINDS:
            raise ValueError(
                f"planner must be 'portfolio' or one of {TREE_KINDS}, "
                f"got {planner!r}"
            )
        self.planner = planner
        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive seconds")
        self.default_deadline = deadline
        self.stats = ServerStats(metrics)
        self.admission = AdmissionController(memory_budget)
        self._tickets: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._pending = 0
        self._draining = False
        self._drained = threading.Condition(self._lock)
        self._seq = 0
        self.workers = [
            ServeWorker(
                i,
                tickets=self._tickets,
                session=TuckerSession(
                    backend=backend,
                    n_procs=n_procs,
                    storage=storage,
                    memory_budget=memory_budget,
                    spill_dir=spill_dir,
                    spill_codec=spill_codec,
                    trace=trace,
                ),
                planner=planner,
                admission=self.admission,
                stats=self.stats,
                on_finished=self._finished,
            )
            for i in range(workers)
        ]

    # -- submission -------------------------------------------------------- #

    def submit(self, request: ServeRequest | dict) -> Ticket:
        """Admit and enqueue one request; returns its ticket.

        Raises :class:`AdmissionError` (shed) when draining or when the
        bounded queue is full, and ``ValueError`` for malformed
        requests — both *before* any tensor bytes are touched.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
        if isinstance(request, dict):
            request = parse_request(request, index=seq)
        if request.deadline is None and self.default_deadline is not None:
            request.deadline = self.default_deadline
        # Malformed requests fail here, before any tensor data is read:
        # the core must fit the input's shape and its dtype must resolve.
        check_core_dims(request.core, request.input_shape())
        request.input_dtype_name()
        with self._lock:
            if self._draining:
                self.stats.shed("draining")
                raise AdmissionError(
                    "server is draining; not accepting requests",
                    reason="draining",
                )
            if self._pending >= self.max_queue:
                self.stats.shed("queue_full")
                raise AdmissionError(
                    f"queue full ({self._pending}/{self.max_queue} pending)",
                    reason="queue_full",
                )
            self._pending += 1
            self.stats.queue_depth(self._pending)
        self.stats.submitted()
        ticket = Ticket(request)
        self._tickets.put(ticket)
        return ticket

    def _finished(self, ticket: Ticket) -> None:
        with self._lock:
            self._pending -= 1
            self.stats.queue_depth(self._pending)
            if self._pending == 0:
                self._drained.notify_all()

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    # -- lifecycle --------------------------------------------------------- #

    def drain(self, *, timeout: float | None = None) -> bool:
        """Graceful shutdown: finish in-flight work, reject new work.

        Returns ``True`` when every queued request completed (and the
        worker threads, sessions and pools are torn down) within
        ``timeout``; ``False`` leaves the workers stopping in the
        background. Idempotent.
        """
        with self._lock:
            already = self._draining
            self._draining = True
            if not already:
                logger.info("drain: %d request(s) in flight", self._pending)
            done = self._drained.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )
        if not done:
            return False
        for _ in self.workers:
            self._tickets.put(None)
        for worker in self.workers:
            worker.stop(timeout=timeout)
        return all(not w.thread.is_alive() for w in self.workers)

    def close(self) -> None:
        """Drain with no timeout (blocks until fully stopped)."""
        self.drain()

    def __enter__(self) -> "TuckerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting --------------------------------------------------------- #

    def merged_trace(self):
        """All workers' per-run traces as one, or ``None`` untraced."""
        from repro.obs import Trace

        traces = [t for w in self.workers for t in w.traces]
        return Trace.merge(traces) if traces else None

    def stats_snapshot(self) -> dict:
        """The ``{"op": "stats"}`` payload: server + admission + plan caches.

        ``affinity`` sums the workers' plan-cache hits and misses: the
        share of requests whose worker already held the compiled plan.
        """
        caches = {f"w{w.index}": w.session.cache_info() for w in self.workers}
        hits = sum(c["hits"] for c in caches.values())
        misses = sum(c["misses"] for c in caches.values())
        out = self.stats.snapshot(
            admission=self.admission.snapshot(),
            affinity={
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        )
        out["workers"] = len(self.workers)
        out["pending"] = self.pending
        out["draining"] = self._draining
        out["plan_cache"] = caches
        return out
