"""Newline-delimited JSON front-end for :class:`TuckerServer`.

One JSON object per line. Requests (``op`` defaults to ``"run"``) are
submitted as they arrive and execute concurrently across the server's
workers; *responses are written in submission order* (a dedicated
responder thread walks the tickets FIFO), so a client can pair line *k*
of output with line *k* of its requests without correlating ids —
concurrency shows up in the latencies, not in the framing.

Control ops:

* ``{"op": "stats"}`` — inline :meth:`TuckerServer.stats_snapshot`.
* ``{"op": "drain"}`` — stop reading, finish in-flight requests, tear
  down the workers, emit a final ``{"op": "drain", ...}`` line with the
  closing stats. EOF on the input behaves like ``drain``.

The one transport is :func:`serve_stdio` (``repro serve``); a relay
such as ``socat`` puts it behind a socket, one server per connection.

Shed requests (queue full / draining) and malformed lines get an
immediate ``ok=false`` response; the server process never dies on a bad
request.
"""

from __future__ import annotations

import json
import logging
import queue
import threading

from repro.serve.admission import AdmissionError
from repro.serve.server import TuckerServer

__all__ = ["serve_lines", "serve_stdio"]

logger = logging.getLogger(__name__)


class _Responder:
    """Writes ticket results (FIFO) and control lines: one lock, one stream."""

    def __init__(self, write_line) -> None:
        self._write_line = write_line
        self._lock = threading.Lock()
        self._tickets: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-responder", daemon=True
        )
        self._thread.start()

    def emit(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._write_line(line)

    def enqueue(self, item) -> None:
        """Queue a ticket *or* an already-resolved payload dict.

        Resolved payloads (shed/parse errors, stats snapshots) ride the
        same FIFO as tickets so the output ordering really is the input
        ordering — an instant rejection never overtakes the response of
        an earlier, still-running request.
        """
        self._tickets.put(item)

    def _loop(self) -> None:
        while True:
            item = self._tickets.get()
            if item is None:
                return
            try:
                payload = item if isinstance(item, dict) else item.result().to_dict()
                self.emit(payload)
            except (OSError, ValueError, TypeError):
                # a broken pipe / unencodable payload must not wedge the
                # drain; later tickets still flush in order
                logger.exception("responder failed to write a result")

    def close(self) -> None:
        """Flush every queued ticket, then stop."""
        self._tickets.put(None)
        self._thread.join()


def serve_lines(server: TuckerServer, read_line, write_line) -> dict:
    """Run the line protocol until drain/EOF; returns the final stats.

    ``read_line`` yields one decoded line per call (``""``/``None`` on
    EOF); ``write_line`` takes one undecorated JSON string. The caller
    owns the transport; this owns the framing and the server lifecycle:
    every accepted request's response is flushed in submission order,
    then the server is drained and a final ``{"op": "drain"}`` line
    carries the closing stats.
    """
    responder = _Responder(write_line)
    try:
        while True:
            line = read_line()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                responder.enqueue({
                    "id": None, "ok": False,
                    "error": f"bad JSON: {exc}",
                    "error_kind": "JSONDecodeError",
                })
                continue
            op = payload.get("op", "run") if isinstance(payload, dict) else "run"
            if op == "stats":
                responder.enqueue({"op": "stats", **server.stats_snapshot()})
                continue
            if op == "drain":
                break
            try:
                ticket = server.submit(payload)
            except AdmissionError as exc:
                responder.enqueue({
                    "id": payload.get("id"), "ok": False, "shed": True,
                    "error": str(exc), "error_kind": "AdmissionError",
                    "reason": exc.reason,
                })
                continue
            except (ValueError, TypeError, OSError) as exc:
                responder.enqueue({
                    "id": payload.get("id"), "ok": False,
                    "error": str(exc), "error_kind": type(exc).__name__,
                })
                continue
            responder.enqueue(ticket)
    finally:
        responder.close()
    drained = server.drain()
    stats = server.stats_snapshot()
    try:
        write_line(json.dumps({"op": "drain", "ok": drained, **stats},
                              sort_keys=True))
    except (OSError, ValueError, TypeError):
        logger.exception("failed to write the drain line")
    return stats


def serve_stdio(server: TuckerServer, stdin=None, stdout=None) -> dict:
    """Speak the line protocol over stdio (``repro serve``)."""
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def write_line(line: str) -> None:
        stdout.write(line + "\n")
        stdout.flush()

    return serve_lines(server, stdin.readline, write_line)
