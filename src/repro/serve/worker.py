"""One serving worker: a private session draining the shared queue.

Workers own their :class:`~repro.session.TuckerSession` outright — the
session's ledger scoping and tracer marks are positional, so overlap
across requests comes from *worker parallelism*, never from sharing one
session between threads. Every worker takes the oldest request off the
server's one FIFO queue as soon as it is free, so no worker idles while
work waits. A worker meeting a plan key for the first time compiles it
once; from then on its session's LRU plan cache hits for that key.

The pipelined half: before executing a request, the worker names the
*next* queued request's ``.npy`` data to the OS in one advisory
``posix_fadvise`` call (:meth:`~repro.serve.request.ServeRequest.read_ahead`,
from the header read at submission), and the kernel reads it into the
page cache while the current decomposition computes. No thread is
started for it, and the advised bytes reach the server stats at once.
"""

from __future__ import annotations

import logging
import queue
import threading
import time

import numpy as np

from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.request import RequestResult, ServeRequest, Ticket
from repro.serve.stats import ServerStats
from repro.session import TuckerSession

__all__ = ["ServeWorker"]

logger = logging.getLogger(__name__)


def _failure(
    req: ServeRequest, worker: int, error: str, kind: str
) -> RequestResult:
    return RequestResult(
        id=req.id,
        ok=False,
        source=req.source(),
        error=error,
        error_kind=kind,
        worker=worker,
    )


class ServeWorker:
    """A daemon thread draining the shared queue through one private
    session with the server's ``planner``; a ``None`` on the queue stops
    one worker."""

    def __init__(
        self,
        index: int,
        *,
        tickets: queue.Queue,
        session: TuckerSession,
        planner,
        admission: AdmissionController,
        stats: ServerStats,
        on_finished,
    ) -> None:
        self.index = index
        self.session = session
        self.planner = planner
        self.admission = admission
        self.stats = stats
        self._on_finished = on_finished
        self.tickets = tickets
        #: per-run traces, collected when the session traces (CLI --trace)
        self.traces: list = []
        self.thread = threading.Thread(
            target=self._loop, name=f"repro-serve-w{index}", daemon=True
        )
        self.thread.start()

    # -- execution --------------------------------------------------------- #

    def _loop(self) -> None:
        while True:
            ticket = self.tickets.get()
            if ticket is None:
                return
            try:
                self._execute(ticket)
            finally:
                self._on_finished(ticket)

    def _execute(self, ticket: Ticket) -> None:
        req = ticket.request
        if not ticket._start():
            # Cancelled while queued; cancel() already published the
            # result — only the accounting is left to do.
            self.stats.cancelled()
            return
        remaining = ticket.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self.stats.deadline_missed()
            self.stats.failed("DeadlineExceeded")
            ticket._finish(_failure(
                req, self.index,
                f"deadline ({req.deadline}s) elapsed while queued",
                "DeadlineExceeded",
            ))
            return
        charge = None
        try:
            arr = req.materialize()
            charge = self.admission.acquire(req.nbytes(), timeout=remaining)
            self._prefetch_next()
            if req.method == "sthosvd":
                result = self.session.sthosvd(
                    arr, req.core, planner=self.planner, dtype=req.dtype
                )
            elif req.method in ("rsthosvd", "sp-rsthosvd"):
                # Init-only, like "sthosvd" — these exist for raw speed.
                # The request seed doubles as the sketch seed, so a
                # replayed request reproduces its decomposition bit for
                # bit — not just its input.
                result = self.session.run(
                    arr,
                    req.core,
                    planner=self.planner,
                    dtype=req.dtype,
                    skip_hooi=True,
                    method=req.method,
                    seed=req.seed,
                )
            else:
                result = self.session.run(
                    arr,
                    req.core,
                    planner=self.planner,
                    dtype=req.dtype,
                    max_iters=req.max_iters,
                    tol=req.tol,
                )
        except AdmissionError as exc:
            if exc.reason == "budget_timeout" and remaining is not None:
                self.stats.deadline_missed()
                self.stats.failed("DeadlineExceeded")
                ticket._finish(_failure(
                    req, self.index,
                    f"deadline ({req.deadline}s) elapsed waiting for "
                    f"memory budget: {exc}",
                    "DeadlineExceeded",
                ))
            else:
                self.stats.failed(type(exc).__name__)
                ticket._finish(_failure(
                    req, self.index, str(exc), type(exc).__name__
                ))
            return
        except Exception as exc:
            # deliberately broad: this is the worker thread's fault
            # barrier — any decomposition failure becomes a failed
            # response instead of a dead worker (and it is logged).
            logger.warning("request %r failed: %s", req.id, exc)
            self.stats.failed(type(exc).__name__)
            ticket._finish(_failure(
                req, self.index, str(exc), type(exc).__name__
            ))
            return
        finally:
            if charge is not None:
                self.admission.release(charge)
        if result.trace is not None:
            self.traces.append(result.trace)
        saved = None
        if req.save:
            dec = result.decomposition
            np.savez(
                req.save,
                core=dec.core,
                **{f"factor{m}": f for m, f in enumerate(dec.factors)},
            )
            saved = req.save
        wall = time.monotonic() - ticket.submitted_at
        ticket._finish(RequestResult(
            id=req.id,
            ok=True,
            source=req.source(),
            seconds=result.seconds,
            worker=self.index,
            storage=result.storage,
            backend=result.backend,
            from_cache=result.from_cache,
            saved=saved,
            value=result,
        ))
        self.stats.completed(seconds=result.seconds, wall_seconds=wall)

    def _prefetch_next(self) -> None:
        """Read the next queued file-backed input ahead while this one
        runs, at most the memory budget of it."""
        with self.tickets.mutex:
            nxt = self.tickets.queue[0] if self.tickets.queue else None
        if nxt is None:
            return
        try:
            warmed = nxt.request.read_ahead(max_bytes=self.admission.budget)
        except OSError as exc:
            # advisory: the real load will surface the error to the client
            logger.debug("prefetch of %r skipped: %s", nxt.request.path, exc)
            return
        self.stats.prefetched(warmed)

    # -- shutdown ---------------------------------------------------------- #

    def stop(self, *, timeout: float | None = None) -> None:
        """Wait for the thread to take its ``None`` off the queue, then
        close the session."""
        self.thread.join(timeout)
        self.session.close()
