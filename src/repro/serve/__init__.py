"""repro.serve — a concurrent Tucker decomposition service.

The batch layer (PR 4) made one session stream many tensors; this
package makes many *clients* stream tensors through many sessions at
once, on one machine, without giving up the guarantees the stack
already earns:

* **Worker-private sessions.** Each of N workers owns a full
  :class:`~repro.session.TuckerSession` — plan LRU, warm backend pools,
  tracer. Concurrency comes from worker parallelism; within a session
  execution stays serialized, so per-run ledgers and traces remain
  exact (see the session's ``_run_lock`` notes).
* **One shared queue**: every worker takes the oldest waiting request
  as soon as it is free, so no worker idles while work waits. A worker
  compiles a ``(dims, core, dtype)`` plan the first time it meets it
  (about a millisecond) and hits its session's plan cache after that.
* **Admission control**
  (:class:`~repro.serve.admission.AdmissionController`): a global
  ``memory_budget`` charged per request through a
  :class:`~repro.storage.store.ResidentGauge`; oversized requests run
  alone via the out-of-core path instead of being shed; a full bounded
  queue sheds fast with a typed
  :class:`~repro.serve.admission.AdmissionError`.
* **Pipelined prefetch**: before a worker computes, it names the next
  queued request's ``.npy`` data to the OS in one advisory
  ``posix_fadvise`` call (:func:`~repro.storage.warm_file`), from the
  header read once at submission; the kernel reads it into the page
  cache meanwhile, with no thread of ours.
* **Deadlines, cancellation, graceful drain** on
  :class:`~repro.serve.server.TuckerServer`, with
  :class:`~repro.serve.stats.ServerStats` reporting through the PR-6
  metrics registry.

Wire clients speak newline-delimited JSON over stdio via
:mod:`repro.serve.protocol` (``repro serve`` on the CLI)::

    with TuckerServer(workers=2, memory_budget="256M") as srv:
        t = srv.submit({"id": "r1", "random": {"dims": [24, 24, 24]},
                        "core": [6, 6, 6]})
        print(t.result().seconds)
"""

from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.protocol import serve_lines, serve_stdio
from repro.serve.request import (
    DeadlineExceeded,
    RequestCancelled,
    RequestResult,
    ServeError,
    ServeRequest,
    Ticket,
    parse_request,
)
from repro.serve.server import TuckerServer
from repro.serve.stats import ServerStats
from repro.serve.worker import ServeWorker

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DeadlineExceeded",
    "RequestCancelled",
    "RequestResult",
    "ServeError",
    "ServeRequest",
    "ServeWorker",
    "ServerStats",
    "Ticket",
    "TuckerServer",
    "parse_request",
    "serve_lines",
    "serve_stdio",
]
