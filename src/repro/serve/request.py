"""Request/response types for the serving layer.

A :class:`ServeRequest` names one decomposition: its input (an in-memory
array, a ``.npy`` path, or a seeded random spec), the core shape, and
per-request execution knobs (method, dtype, deadline). Submitting one to
a :class:`~repro.serve.server.TuckerServer` yields a :class:`Ticket` —
a small future the caller waits on, cancels, or polls — which resolves
to a :class:`RequestResult`.

``plan_key(request)`` is the affinity identity: requests agreeing on
``(dims, core, dtype)`` share a compiled plan and a warm backend, so the
router keeps them on the same worker.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.util.validation import check_core_dims, check_dims, check_positive_int

__all__ = [
    "DeadlineExceeded",
    "RequestCancelled",
    "RequestResult",
    "ServeError",
    "ServeRequest",
    "Ticket",
    "parse_request",
    "plan_key",
]

_METHODS = ("run", "sthosvd", "rsthosvd", "sp-rsthosvd")


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class DeadlineExceeded(ServeError):
    """The request's deadline elapsed before (or while) it could run."""


class RequestCancelled(ServeError):
    """The request was cancelled while still queued."""


@dataclass
class ServeRequest:
    """One decomposition to serve.

    Exactly one of ``array`` / ``path`` / ``dims`` (random spec) names
    the input. ``deadline`` is seconds from submission; a request still
    queued (or still waiting on admission) when it elapses fails with
    :class:`DeadlineExceeded` instead of running.
    """

    core: tuple[int, ...]
    id: str = ""
    array: np.ndarray | None = None
    path: str | None = None
    dims: tuple[int, ...] | None = None
    seed: int = 0
    method: str = "run"
    dtype: str | None = None
    max_iters: int = 10
    tol: float = 1e-8
    deadline: float | None = None
    save: str | None = None

    def __post_init__(self) -> None:
        sources = [
            s for s in (self.array is not None, self.path is not None,
                        self.dims is not None) if s
        ]
        if len(sources) != 1:
            raise ValueError(
                "exactly one of array=/path=/dims= must name the input"
            )
        if self.method not in _METHODS:
            raise ValueError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.dims is not None:
            self.dims = check_dims(self.dims)
        self.core = tuple(int(k) for k in self.core)
        self.max_iters = check_positive_int(self.max_iters, "max_iters")
        if self.deadline is not None and float(self.deadline) <= 0:
            raise ValueError("deadline must be positive seconds")

    def materialize(self) -> np.ndarray:
        """The input tensor: resident array, lazy ``.npy`` map, or RNG."""
        if self.array is not None:
            return self.array
        if self.path is not None:
            arr = np.load(os.fspath(self.path), mmap_mode="r")
            if not isinstance(arr, np.ndarray):
                raise ValueError(
                    f"{self.path} does not contain a single ndarray"
                )
            return arr
        from repro.tensor.random import random_tensor

        return random_tensor(self.dims, seed=self.seed)

    def input_shape(self) -> tuple[int, ...]:
        """The input's dims without materializing it (header peek for paths)."""
        if self.array is not None:
            return tuple(self.array.shape)
        if self.dims is not None:
            return tuple(self.dims)
        shape, _ = _npy_header(os.fspath(self.path))
        return shape

    def input_dtype_name(self) -> str:
        """The *working* dtype name this request resolves to."""
        if self.dtype is not None:
            return np.dtype(self.dtype).name
        if self.array is not None:
            src = self.array.dtype
        elif self.dims is not None:
            src = np.dtype(np.float64)
        else:
            _, src = _npy_header(os.fspath(self.path))
        # Mirrors repro.util.serial.resolve_dtype: float32 stays, the
        # rest runs float64.
        return "float32" if src == np.dtype(np.float32) else "float64"

    def nbytes(self) -> int:
        """Working-set bytes (shape x resolved dtype) for admission."""
        n = 1
        for d in self.input_shape():
            n *= int(d)
        return n * np.dtype(self.input_dtype_name()).itemsize

    def source(self) -> str:
        if self.path is not None:
            return os.fspath(self.path)
        if self.dims is not None:
            return f"random{tuple(self.dims)}#seed={self.seed}"
        return f"array{tuple(self.array.shape)}"


def _npy_header(path: str) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype from a ``.npy`` header (maps, never reads data)."""
    arr = np.load(path, mmap_mode="r")
    if not isinstance(arr, np.ndarray):
        raise ValueError(f"{path} does not contain a single ndarray")
    return tuple(int(d) for d in arr.shape), arr.dtype


def plan_key(request: ServeRequest) -> tuple:
    """The affinity identity: ``(dims, core, dtype.name)``.

    Matches the session plan-cache grouping (`_materialize_item`'s
    ``group_key``): two requests with equal keys compile one plan and
    share a warm backend selection on whichever worker owns the key.
    """
    core = check_core_dims(request.core, request.input_shape())
    return (request.input_shape(), core, request.input_dtype_name())


@dataclass
class RequestResult:
    """The serialized outcome of one served request."""

    id: str
    ok: bool
    source: str = ""
    error: str | None = None
    error_kind: str | None = None
    seconds: float = 0.0
    wall_seconds: float = 0.0
    worker: int = -1
    affinity_hit: bool = False
    storage: str = ""
    backend: str = ""
    from_cache: bool = False
    saved: str | None = None
    #: the full in-process TuckerResult (never serialized over the wire)
    value: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The ndjson response payload (JSON-safe fields only)."""
        return {
            "id": self.id,
            "ok": self.ok,
            "source": self.source,
            "error": self.error,
            "error_kind": self.error_kind,
            "seconds": self.seconds,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "affinity_hit": self.affinity_hit,
            "storage": self.storage,
            "backend": self.backend,
            "from_cache": self.from_cache,
            "saved": self.saved,
        }


class Ticket:
    """A submitted request's future: wait, poll, or cancel.

    States move one way: queued -> running -> done, or queued ->
    cancelled. :meth:`cancel` only succeeds while still queued — an
    executing decomposition is never interrupted mid-kernel.
    """

    def __init__(self, request: ServeRequest, worker: int, affinity_hit: bool):
        self.request = request
        self.worker = worker
        self.affinity_hit = affinity_hit
        self.submitted_at = time.monotonic()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._state = "queued"
        self._result: RequestResult | None = None

    @property
    def state(self) -> str:
        return self._state

    def deadline_remaining(self) -> float | None:
        """Seconds left before the deadline; ``None`` when unbounded."""
        if self.request.deadline is None:
            return None
        return self.request.deadline - (time.monotonic() - self.submitted_at)

    def cancel(self) -> bool:
        """Cancel if still queued; returns whether it took effect.

        A successful cancel publishes the ``ok=False`` result itself —
        waiters unblock immediately; the owning worker later skips the
        dead ticket when it surfaces from the inbox.
        """
        with self._lock:
            if self._state != "queued":
                return False
            self._state = "cancelled"
            self._result = RequestResult(
                id=self.request.id,
                ok=False,
                source=self.request.source(),
                error="cancelled while queued",
                error_kind="RequestCancelled",
                worker=self.worker,
                affinity_hit=self.affinity_hit,
                wall_seconds=time.monotonic() - self.submitted_at,
            )
        self._done.set()
        return True

    def _start(self) -> bool:
        """Worker claims the ticket; ``False`` when already cancelled."""
        with self._lock:
            if self._state != "queued":
                return False
            self._state = "running"
            return True

    def _finish(self, result: RequestResult) -> None:
        result.wall_seconds = time.monotonic() - self.submitted_at
        with self._lock:
            self._result = result
            self._state = "done"
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> RequestResult:
        """Block for the outcome (cancellation counts as an outcome)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.id!r} not done after {timeout}s"
            )
        return self._result


def parse_request(payload: dict, *, index: int = 0) -> ServeRequest:
    """Build a :class:`ServeRequest` from one ndjson payload dict.

    The wire shape (all fields but ``core`` + one input source are
    optional)::

        {"id": "r1", "path": "x.npy", "core": [4, 4, 4],
         "method": "run", "dtype": "float64", "deadline": 5.0,
         "max_iters": 10, "tol": 1e-8, "save": "out/r1.npz",
         "random": {"dims": [32, 32, 32], "seed": 7}}
    """
    if not isinstance(payload, dict):
        raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - {
        "op", "id", "path", "data", "random", "core", "method", "dtype",
        "deadline", "max_iters", "tol", "save", "seed",
    }
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    if "core" not in payload:
        raise ValueError("request needs a core= shape")
    random_spec = payload.get("random")
    dims = None
    seed = int(payload.get("seed", 0))
    if random_spec is not None:
        if not isinstance(random_spec, dict) or "dims" not in random_spec:
            raise ValueError('random= must be {"dims": [...], "seed": n}')
        dims = tuple(int(d) for d in random_spec["dims"])
        if "seed" in random_spec:
            inner = int(random_spec["seed"])
            if "seed" in payload and inner != seed:
                # The inner seed used to silently win; with the seed now
                # also steering randomized decomposition, a conflicting
                # pair is ambiguous and must be rejected, not resolved.
                raise ValueError(
                    f"conflicting seeds: seed={seed} vs "
                    f"random.seed={inner}; give one (or the same value)"
                )
            seed = inner
    array = None
    if payload.get("data") is not None:
        array = np.asarray(payload["data"], dtype=np.float64)
    return ServeRequest(
        id=str(payload.get("id", f"req{index}")),
        core=tuple(int(k) for k in payload["core"]),
        array=array,
        path=payload.get("path"),
        dims=dims,
        seed=seed,
        method=payload.get("method", "run"),
        dtype=payload.get("dtype"),
        max_iters=int(payload.get("max_iters", 10)),
        tol=float(payload.get("tol", 1e-8)),
        deadline=(
            float(payload["deadline"])
            if payload.get("deadline") is not None
            else None
        ),
        save=payload.get("save"),
    )
