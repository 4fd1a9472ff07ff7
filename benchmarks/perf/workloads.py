"""The four benchmark workloads: inputs, drivers and the correctness check.

Every workload is a closed loop over the program's public entry points
(`TuckerSession.run` / `run_many`, `TuckerServer.submit`). Inputs are
low-rank + 5 % noise tensors built here with numpy alone, so the program
receives only the generated data; `max_iters=2, tol=-inf` makes every item
STHOSVD plus exactly two HOOI sweeps, whatever the input.

`repro` is imported inside the functions that need it: the harness times
that import as part of set-up.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

RUN = {"max_iters": 2, "tol": float("-inf")}
NOISE = 0.05
CORE_RTOL = 1e-10
ERROR_ATOL = 1e-9


def lowrank(dims, core, rng, dtype=np.float64) -> np.ndarray:
    """A rank-`core` tensor plus noise of exactly `NOISE` times its norm.

    Modes are expanded last to first, so every step is one (batched) GEMM
    into a contiguous result. The noise norm is fixed, not drawn, so
    `rel_error` hardly depends on the seed.
    """
    x = rng.standard_normal(core)
    shape = list(core)
    for m in reversed(range(len(dims))):
        q, _ = np.linalg.qr(rng.standard_normal((dims[m], core[m])))
        lead = int(np.prod(shape[:m]))
        trail = int(np.prod(shape[m + 1:]))
        x = np.matmul(q, x.reshape(lead, core[m], trail))
        shape[m] = dims[m]
    flat = x.reshape(-1)
    noise = rng.standard_normal(flat.size, dtype=np.float32)
    noise *= np.float32(NOISE * np.linalg.norm(flat) / np.linalg.norm(noise))
    flat += noise
    return x.reshape(dims).astype(dtype, copy=False)


@dataclass
class Case:
    """One distinct input: an array, or the path of a `.npy` file."""

    key: str
    data: object
    core: tuple

    def load(self) -> np.ndarray:
        return np.load(self.data) if isinstance(self.data, str) else self.data


class Checker:
    """Latencies, failures and per-item deviations of one timed phase.

    Results are not kept (they would count towards `peak_rss_mb`): each
    item is reduced to its distance from the first result seen for the
    same input, and `verify` measures that first result against the
    reference once every clock has stopped.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.extras: list[tuple] = []
        self.first: dict[str, tuple] = {}
        self.items: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def record(self, case: Case, seconds: float, result, extra=None) -> None:
        """One finished item; `result` is None when it raised or was shed."""
        with self.lock:
            self.attempted += 1
            if result is None:
                self.failed += 1
                return
            self.latencies.append(seconds)
            if extra is not None:
                self.extras.append(extra)
            core = result.decomposition.core
            ref_core, ref_error = self.first.setdefault(
                case.key, (core, result.error)
            )
            self.items.append((
                case.key,
                _rel_diff(core, ref_core),
                abs(result.error - ref_error),
            ))

    def verify(self, cases: list[Case]) -> float:
        """Count items off the reference as failed; returns `rel_error`.

        The reference is an in-memory sequential run of each distinct
        input. An item's core is within its own distance to the first
        result plus that result's distance to the reference.
        """
        from repro import TuckerSession

        off = {}
        with TuckerSession("sequential") as session:
            for case in cases:
                if case.key not in self.first:
                    continue
                ref = session.run(case.load(), case.core, **RUN)
                core, error = self.first[case.key]
                off[case.key] = (
                    _rel_diff(core, ref.decomposition.core),
                    abs(error - ref.error),
                )
        for key, core_dev, error_dev in self.items:
            if (
                off[key][0] + core_dev > CORE_RTOL
                or off[key][1] + error_dev > ERROR_ATOL
            ):
                self.failed += 1
        return max((error for _, error in self.first.values()), default=0.0)


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a is b:
        return 0.0
    if a.shape != b.shape:
        return float("inf")
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@dataclass(frozen=True)
class Dense:
    """`session.run` on resident tensors, one caller."""

    name: str
    why: str
    dims: tuple
    core: tuple
    backend: str
    n_procs: int | None
    n_inputs: int
    warmup: int
    trace_items: int

    def tiny(self) -> "Dense":
        return replace(
            self,
            dims=tuple(max(6, d // 12) for d in self.dims),
            core=tuple(max(2, k // 4) for k in self.core),
            warmup=1,
            trace_items=2,
        )

    def make_inputs(self, rng, workdir: str, n_inputs=None) -> list[Case]:
        return [
            Case(f"x{i}", lowrank(self.dims, self.core, rng), self.core)
            for i in range(n_inputs or self.n_inputs)
        ]

    def start(self, workdir: str):
        from repro import TuckerSession

        return TuckerSession(self.backend, n_procs=self.n_procs)

    def warm(self, session, cases) -> None:
        for i in range(self.warmup):
            case = cases[i % len(cases)]
            session.run(case.data, case.core, **RUN)

    def drive(
        self, session, cases, seconds, record, seed=0, max_items=None
    ) -> float:
        """Closed loop for `seconds` (or `max_items`); returns its wall."""
        start = perf_counter()
        done = 0
        while _more(start, seconds, done, max_items):
            case = cases[done % len(cases)]
            t0 = perf_counter()
            result = _guard(session.run, case.data, case.core, **RUN)
            record(case, perf_counter() - t0, result)
            done += 1
        return perf_counter() - start

    def stop(self, session) -> None:
        session.close()

    def cache_info(self, session) -> list[dict]:
        return [session.cache_info()]

    def plan_keys(self) -> list[tuple]:
        return [(self.dims, self.core, self.n_procs)]


@dataclass(frozen=True)
class Spill(Dense):
    """`session.run_many` over `.npy` files under a 16 MB budget."""

    budget: str = "16M"

    def make_inputs(self, rng, workdir: str, n_inputs=None) -> list[Case]:
        cases = []
        for i in range(n_inputs or self.n_inputs):
            path = os.path.join(workdir, f"{self.name}-{i}.npy")
            np.save(path, lowrank(self.dims, self.core, rng))
            cases.append(Case(f"x{i}", path, self.core))
        return cases

    def start(self, workdir: str):
        from repro import TuckerSession

        return TuckerSession(
            self.backend,
            storage="mmap",
            memory_budget=self.budget,
            spill_codec="raw",
            spill_dir=os.path.join(workdir, "spill"),
        )

    def _batch(self, session, cases, record=None) -> int:
        paths = [case.data for case in cases]
        try:
            batch = session.run_many(
                paths, self.core, prefetch=True, on_error="skip", **RUN
            )
        except Exception:  # the whole batch is lost: count every item
            batch = None
        if record is not None:
            items = batch.items if batch is not None else []
            for item in items:
                record(cases[item.index], item.seconds, item.result)
            for _ in range(len(cases) - len(items)):
                record(cases[0], 0.0, None)
        return len(cases)

    def warm(self, session, cases) -> None:
        for _ in range(self.warmup):
            self._batch(session, cases)

    def drive(
        self, session, cases, seconds, record, seed=0, max_items=None
    ) -> float:
        start = perf_counter()
        done = 0
        while _more(start, seconds, done, max_items):
            done += self._batch(session, cases, record)
        return perf_counter() - start


@dataclass(frozen=True)
class Serve:
    """`TuckerServer.submit` from closed-loop client threads."""

    name: str
    why: str
    keys: tuple  # (dims, core, dtype name) per plan key
    workers: int
    clients: int
    warmup: int
    trace_items: int
    budget: str = "64M"

    def tiny(self) -> "Serve":
        keys = tuple(
            (
                tuple(max(6, d // 4) for d in dims),
                tuple(max(2, k // 2) for k in core),
                dtype,
            )
            for dims, core, dtype in self.keys
        )
        return replace(self, keys=keys, warmup=2, trace_items=12)

    def make_inputs(self, rng, workdir: str, n_inputs=None) -> list[Case]:
        return [
            Case(f"k{i}", lowrank(dims, core, rng, np.dtype(dtype)), core)
            for i, (dims, core, dtype) in enumerate(self.keys)
        ]

    def start(self, workdir: str):
        from repro.serve import TuckerServer

        return TuckerServer(
            workers=self.workers,
            backend="sequential",
            memory_budget=self.budget,
            spill_dir=os.path.join(workdir, "spill"),
        )

    @staticmethod
    def _request(case: Case):
        from repro.serve import ServeRequest

        return ServeRequest(
            core=case.core, array=case.data, method="run", **RUN
        )

    def warm(self, server, cases) -> None:
        # Bursts of all keys back to back: the router then splits the keys
        # over the workers. One request at a time would pin every key to
        # worker 0 and serialise the server.
        for _ in range(self.warmup):
            tickets = [server.submit(self._request(c)) for c in cases]
            for ticket in tickets:
                if not ticket.result().ok:
                    raise RuntimeError("warm-up request failed")

    def drive(
        self, server, cases, seconds, record, seed=0, max_items=None
    ) -> float:
        start = perf_counter()
        per_client = None if max_items is None else max_items // self.clients

        def client(index: int) -> None:
            # Each client draws its keys from its own stream of the seed.
            rng = np.random.default_rng([seed, index])
            done = 0
            while _more(start, seconds, done, per_client):
                case = cases[int(rng.integers(len(cases)))]
                t0 = perf_counter()
                try:
                    reply = server.submit(self._request(case)).result()
                except Exception:  # shed at admission
                    reply = None
                latency = perf_counter() - t0
                if reply is None or not reply.ok:
                    record(case, latency, None)
                else:
                    record(
                        case, latency, reply.value,
                        (latency, reply.seconds, reply.wall_seconds),
                    )
                done += 1

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return perf_counter() - start

    def stop(self, server) -> None:
        if not server.drain(timeout=60) or server.pending:
            raise RuntimeError("server did not drain")

    def cache_info(self, server) -> list[dict]:
        return [w.session.cache_info() for w in server.workers]

    def plan_keys(self) -> list[tuple]:
        return [(dims, core, None) for dims, core, _ in self.keys]


def _more(start: float, seconds: float, done: int, max_items) -> bool:
    if max_items is not None:
        return done < max_items
    return perf_counter() - start < seconds


def _guard(func, *args, **kwargs):
    """The call's result, or None when it raises: the item counts as failed."""
    try:
        return func(*args, **kwargs)
    except Exception:
        return None


WORKLOADS = (
    Dense(
        name="dense3d-seq",
        why="256^3 f64 on one thread: TTM and Gram+EVD kernels dominate, "
            "executor, storage and serve code is bypassed",
        dims=(256, 256, 256), core=(32, 32, 32),
        backend="sequential", n_procs=None,
        n_inputs=2, warmup=3, trace_items=3,
    ),
    Dense(
        name="dense4d-threaded",
        why="72x64x60x56 f64 on the 2-thread pool: same kernels behind "
            "blockpar, so dispatch and reduction overheads show",
        dims=(72, 64, 60, 56), core=(9, 8, 8, 7),
        backend="threaded", n_procs=2,
        n_inputs=2, warmup=8, trace_items=6,
    ),
    Spill(
        name="spill3d-stream",
        why="run_many over four 72 MB .npy files under a 16 MB budget: "
            "MmapStore, ockernels and the Prefetcher carry the kernels",
        dims=(224, 208, 192), core=(28, 26, 24),
        backend="sequential", n_procs=None,
        n_inputs=4, warmup=1, trace_items=4,
    ),
    Serve(
        name="serve-mixed",
        why="2 workers, 2 closed-loop clients, six small plan keys: "
            "small EVDs, per-run Python and queueing dominate, big GEMMs "
            "do little",
        keys=(
            ((96, 80, 64), (12, 10, 8), "float64"),
            ((128, 96, 48), (16, 12, 6), "float64"),
            ((80, 80, 80), (10, 10, 10), "float32"),
            ((40, 36, 32, 28), (6, 5, 5, 4), "float64"),
            ((32, 32, 24, 20), (4, 4, 3, 3), "float64"),
            ((64, 64, 96), (8, 8, 12), "float64"),
        ),
        workers=2, clients=2, warmup=15, trace_items=120,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
