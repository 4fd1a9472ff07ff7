"""Per-layer numbers, taken from outside the program.

Two sources. *Wrapped* runs put a span around every call a workload makes
into a layer's public methods (`TuckerSession.run`, the `ExecutionBackend`
kernels, `MmapStore` and `StoredTensor`), installed as class-level
wrappers for the length of a `with wrapped(recorder)` block. *Direct*
probes call one layer at a time on the workloads' inputs. Spans stay in
memory; `Recorder.dump` writes them once the run is over.

Metric names and units are listed once, in `BENCHMARK.json`; `run.py`
refuses a trace run whose names differ from that list.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import replace
from statistics import median, quantiles
from time import perf_counter

import numpy as np

from workloads import RUN, Checker, lowrank

ITEM = "session.run"


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


class Span:
    """One timed call. `sums`/`counts` are filled on item (root) spans only:
    self seconds and numeric attributes of every span below, by name."""

    __slots__ = ("name", "start", "end", "parent", "children", "attrs",
                 "sums", "counts")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.children = 0.0
        self.start = perf_counter()
        self.end = self.start
        if parent is None:
            self.sums = {}
            self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans per thread; self time is a span minus its child spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else None, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children += span.seconds
            root = stack[0] if stack else span
            root.sums[name] = (
                root.sums.get(name, 0.0) + span.seconds - span.children
            )
            root.counts[name] = root.counts.get(name, 0) + 1
            for key, value in attrs.items():
                root.counts[key] = root.counts.get(key, 0) + value
            self.spans.append(span)

    def items(self, since: int = 0) -> list[Span]:
        return [
            s for s in self.spans[since:]
            if s.parent is None and s.name == ITEM
        ]

    def dump(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": ids[id(span)],
                    "parent": ids.get(id(span.parent)),
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    **span.attrs,
                }) + "\n")


def _targets():
    """`(class, method, describe)` for every wrapped call.

    `describe(self, args, kwargs)` names the span and gives its counts. A
    backend kernel on a spilled handle runs `backends.ockernels`, so it is
    named after that layer, not after the backend that dispatched it.
    """
    from repro.backends import (
        ProcessPoolBackend,
        SequentialBackend,
        SimClusterBackend,
        ThreadedBackend,
    )
    from repro.session import TuckerSession
    from repro.storage import MmapStore, StoredTensor

    def kernel(backend, method):
        def describe(self, args, kwargs):
            spilled = kwargs.get("store") is not None or isinstance(
                args[0], StoredTensor
            )
            layer = "ockernels" if spilled else backend.name
            return f"backends.{layer}.{method}", {}
        return describe

    def store_call(method):
        def describe(self, args, kwargs):
            if method == "put":
                written = int(np.asarray(args[1]).nbytes)
            elif method == "create":
                written = int(np.prod(args[1], dtype=np.int64)) * np.dtype(
                    args[2]
                ).itemsize
            else:
                return f"storage.{method}", {}
            return f"storage.{method}", {"storage.bytes_written": written}
        return describe

    out = [(TuckerSession, "run", lambda self, args, kwargs: (ITEM, {}))]
    for backend in (SequentialBackend, ThreadedBackend, ProcessPoolBackend,
                    SimClusterBackend):
        for method in ("distribute", "gather", "ttm", "leading_factor",
                       "fro_norm_sq", "sketch", "cross_gram"):
            if method in vars(backend):
                out.append((backend, method, kernel(backend, method)))
    for method in ("put", "get", "create", "writer", "delete", "close"):
        out.append((MmapStore, method, store_call(method)))
    for method in ("open", "writer", "close"):
        out.append((StoredTensor, method, store_call(method)))
    return out


@contextmanager
def wrapped(recorder: Recorder):
    """Class-level span wrappers, removed again on exit."""
    installed = []

    def install(cls, method, describe):
        original = vars(cls)[method]

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            name, counts = describe(self, args, kwargs)
            with recorder.span(name, **counts):
                return original(self, *args, **kwargs)

        setattr(cls, method, wrapper)
        installed.append((cls, method, original))

    try:
        for target in _targets():
            install(*target)
        yield
    finally:
        for cls, method, original in installed:
            setattr(cls, method, original)


# --------------------------------------------------------------------- #
# small measuring helpers
# --------------------------------------------------------------------- #


def timed_value(func, reps: int = 3) -> tuple:
    """Median wall seconds of `func()` over `reps` calls, and its last value."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        value = func()
        times.append(perf_counter() - t0)
    return median(times), value


def timed(func, reps: int = 3) -> float:
    return timed_value(func, reps)[0]


def gemm_rate(n: int = 512, reps: int = 9) -> float:
    """Single-thread GEMM rate in multiply-adds per second (numpy only).

    The best of three medians: one stall of the box must not read as drift.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b
    return n**3 / min(timed(lambda: a @ b, reps) for _ in range(3))


class Yardstick:
    """How fast the box is right now: one fixed, numpy-only job, timed.

    This shared 2-vCPU box runs the same code 20 % slower for minutes at a
    time (README, "Run-to-run spread"). End-to-end times are therefore
    scaled by `factor()`, measured right next to them: they read as wall
    time on a box that does this job in `NOMINAL_S`. The job is one STHOSVD
    sweep of a `dim`^3 tensor on one thread (unfold copy, Gram, EVD, TTM per
    mode), the program's own mix of GEMM and memory traffic, and never
    changes with the program.
    """

    NOMINAL_S = 0.030

    def __init__(self, rng, dim: int = 160) -> None:
        self.x = lowrank((dim,) * 3, (dim // 8,) * 3, rng)
        self.seconds: list[float] = []

    def sweep(self) -> None:
        x = self.x
        for mode in range(x.ndim):
            rest = x.shape[:mode] + x.shape[mode + 1:]
            flat = np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)
            _, vectors = np.linalg.eigh(flat @ flat.T)
            small = vectors[:, -(x.shape[mode] // 8):].T @ flat
            x = np.ascontiguousarray(
                np.moveaxis(small.reshape((-1,) + rest), 0, mode)
            )

    def factor(self) -> float:
        """`NOMINAL_S` over the job's median time now (below 1 on a slow box)."""
        self.seconds.append(timed(self.sweep))
        return self.NOMINAL_S / self.seconds[-1]


def p50(values) -> float:
    return float(median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), or the maximum of short samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(quantiles(values, n=100, method="inclusive")[q - 1])


def item_sum_ms(items: list[Span], name: str) -> float:
    """Median over items of the self milliseconds spent in spans `name`."""
    return p50([item.sums.get(name, 0.0) for item in items]) * 1e3


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# --------------------------------------------------------------------- #
# numbers from a wrapped workload run
# --------------------------------------------------------------------- #

KERNELS = ("ttm", "leading_factor", "distribute", "gather", "fro_norm_sq")


def backend_metrics(items: list[Span], layer: str) -> dict:
    prefix = f"backends.{layer}."
    out = {
        f"{prefix}{kernel}_ms": item_sum_ms(items, prefix + kernel)
        for kernel in KERNELS
    }
    out[f"{prefix}calls_per_item"] = p50([
        sum(n for name, n in item.counts.items() if name.startswith(prefix))
        for item in items
    ])
    return out


def spill_metrics(items: list[Span], leftover: int) -> dict:
    """Of the spill workload's items; the caller reset the resident gauge
    before the workload started."""
    from repro.storage import resident_gauge

    oc = "backends.ockernels."
    return {
        oc + "ttm_ms": item_sum_ms(items, oc + "ttm"),
        oc + "gram_ms": item_sum_ms(items, oc + "leading_factor"),
        oc + "norm_sq_ms": item_sum_ms(items, oc + "fro_norm_sq"),
        "storage.spill_bytes_written_per_item": p50([
            item.counts.get("storage.bytes_written", 0) for item in items
        ]),
        "storage.resident_peak_mb": resident_gauge().peak / 1e6,
        "storage.leftover_files": leftover,
    }


def serve_metrics(checker: Checker, server) -> dict:
    client, service, walls = zip(*checker.extras)
    snapshot = server.stats_snapshot()
    return {
        "serve.service_ms_p50": p50(service) * 1e3,
        "serve.queue_wait_ms_p50":
            p50([w - s for w, s in zip(walls, service)]) * 1e3,
        "serve.client_overhead_ms_p50":
            p50([c - w for c, w in zip(client, walls)]) * 1e3,
        "serve.latency_ms_p99": percentile(client, 99) * 1e3,
        "serve.affinity_hit_rate": snapshot["affinity"]["hit_rate"],
        "serve.shed_count": snapshot["shed"],
    }


def schedule_steps(workload) -> int:
    """Schedule steps one item of the workload's first plan key executes."""
    from repro import TensorMeta, TuckerSession

    dims, core, n_procs = workload.plan_keys()[0]
    with TuckerSession("sequential") as session:
        plan = session.compile(TensorMeta(dims=dims, core=core), n_procs)
    return RUN["max_iters"] * (len(plan.tree_steps) + len(plan.core_steps))


def session_metrics(items: list[Span], caches: list[dict], steps: int) -> dict:
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    return {
        "session.overhead_ms": item_sum_ms(items, ITEM),
        "session.item_ms_p90":
            percentile([item.seconds for item in items], 90) * 1e3,
        "session.plan_cache_hit_rate": hits / max(1, hits + misses),
        "backends.schedule.steps_per_item": steps,
    }


# --------------------------------------------------------------------- #
# direct probes
# --------------------------------------------------------------------- #


def probe_tensor(x: np.ndarray, k: int, gemm: float) -> dict:
    """`repro.tensor` kernels on the resident 3-D input, one thread."""
    from repro.tensor import ttm, unfold
    from repro.tensor.linalg import gram, leading_eigvecs

    out = {"tensor.gemm_gflops": 2 * gemm / 1e9}
    for position, mode in (("first", 0), ("middle", 1), ("last", 2)):
        matrix = np.random.default_rng(mode).standard_normal(
            (k, x.shape[mode])
        )
        seconds = timed(lambda: ttm(x, matrix, mode))
        out[f"tensor.ttm_{position}_ms"] = seconds * 1e3
        out[f"tensor.ttm_{position}_frac_gemm"] = k * x.size / seconds / gemm
    flat = unfold(x, 0)
    seconds = timed(lambda: gram(flat))
    out["tensor.gram_ms"] = seconds * 1e3
    # numpy sends `a @ a.T` to syrk: half the multiply-adds of a GEMM.
    out["tensor.gram_frac_gemm"] = (
        (x.shape[0] + 1) * x.size / 2 / seconds / gemm
    )
    g = gram(flat)
    out["tensor.evd_ms"] = timed(lambda: leading_eigvecs(g, k), 5) * 1e3
    out["tensor.unfold_ms"] = timed(
        lambda: np.ascontiguousarray(unfold(x, 1))
    ) * 1e3
    return out


def task_overhead_us(backend) -> float:
    """Per-task dispatch cost: a TTM too small to matter, pool vs inline."""
    from repro.backends import SequentialBackend

    x = np.random.default_rng(0).standard_normal((8, 8, 8, 8))
    matrix = np.ones((2, 8))
    inline = SequentialBackend()

    def call(b):
        handle = b.distribute(x, None)
        b.ttm(handle, matrix, 0)  # first call starts the pool
        return timed(lambda: b.ttm(handle, matrix, 0), 30)

    extra = call(backend) - call(inline)
    return max(extra, 0.0) / backend.default_procs * 1e6


def probe_pools(cases, threaded_item_s: float, recorder: Recorder) -> dict:
    """Thread pool against one thread, and the process pool, on the 4-D
    input. The process pool has no end-to-end workload: its two workers
    and the parent are three processes on two cores."""
    from repro import TuckerSession
    from repro.backends import ThreadedBackend

    case = cases[0]
    with TuckerSession("sequential") as session:
        sequential = timed(lambda: session.run(case.data, case.core, **RUN))
    with ThreadedBackend(2) as backend:
        out = {
            "backends.threaded.speedup_vs_seq": sequential / threaded_item_s,
            "backends.threaded.task_overhead_us": task_overhead_us(backend),
        }
    before = shm_entries()
    with TuckerSession("procpool", n_procs=2) as session:
        t0 = perf_counter()
        session.run(case.data, case.core, **RUN)
        cold = perf_counter() - t0
        mark = len(recorder.spans)
        with wrapped(recorder):
            warm = timed(lambda: session.run(case.data, case.core, **RUN), 2)
        out.update({
            "backends.procpool.item_ms": warm * 1e3,
            "backends.procpool.pool_start_ms": max(cold - warm, 0.0) * 1e3,
            "backends.procpool.distribute_ms": item_sum_ms(
                recorder.items(mark), "backends.procpool.distribute"
            ),
            "backends.procpool.task_overhead_us":
                task_overhead_us(session.backend),
        })
    gc.collect()
    out["backends.procpool.shm_leaks"] = len(shm_entries() - before)
    return out


def probe_spill(spill, case, workdir: str) -> dict:
    """`ockernels` against the resident kernels, store codecs, and the
    sketch methods, all on one spill-sized `.npy` block."""
    from repro import TuckerSession
    from repro.backends import SequentialBackend
    from repro.backends.blockpar import OC_LEASE_FACTOR
    from repro.backends.sketch import single_pass_specs
    from repro.storage import (
        DEFAULT_CHUNK_BYTES,
        MmapStore,
        parse_bytes,
        warm_pages,
    )

    block = case.load()
    mapped = np.load(case.data, mmap_mode="r")
    core = case.core
    backend = SequentialBackend()
    matrix = np.random.default_rng(1).standard_normal((core[1], block.shape[1]))
    specs = single_pass_specs(
        np.random.default_rng(2), block.shape, core, 5, block.dtype
    )
    max_block = parse_bytes(spill.budget) // OC_LEASE_FACTOR
    out = {}
    with MmapStore(
        root=os.path.join(workdir, "spill"),
        max_block_bytes=max_block,
        chunk_bytes=min(DEFAULT_CHUNK_BYTES, max_block),
    ) as store:
        handle = backend.distribute(mapped, None, store=store)
        spilled = timed(lambda: backend.ttm(handle, matrix, 1).close())
        resident = timed(lambda: backend.ttm(block, matrix, 1))
        out["backends.ockernels.oc_over_inmem"] = spilled / resident
        out["backends.ockernels.sketch_ms"] = timed(
            lambda: backend.sketch(handle, specs), 1
        ) * 1e3
        # Deflate of noisy doubles runs near 25 MB/s: a ninth of the
        # block keeps the probe under half a second.
        slab = block[: max(1, block.shape[0] // 9)]
        for codec, data in (("raw", block), ("narrow", block), ("zlib", slab)):
            seconds = timed(lambda: store.put(codec, data, codec=codec), 2)
            out[f"storage.put_{codec}_mbps"] = data.nbytes / 1e6 / seconds
        store.put("cold", slab, codec="zlib")
        t0 = perf_counter()
        store.get("cold")  # the first read decodes into a raw scratch file
        out["storage.decode_zlib_mbps"] = (
            slab.nbytes / 1e6 / (perf_counter() - t0)
        )
        out["storage.open_ms"] = timed(lambda: store.get("raw"), 9) * 1e3
        out["storage.warm_pages_mbps"] = block.nbytes / 1e6 / timed(
            lambda: warm_pages(np.load(case.data, mmap_mode="r"))
        )

    def sketch_ms(session, data, method, reps):
        seconds, result = timed_value(lambda: session.run(
            data, core, method=method, skip_hooi=True, seed=0
        ), reps)
        return seconds * 1e3, result.error

    prefix = "backends.sketch."
    with TuckerSession("sequential") as session:
        out[prefix + "rsthosvd_ms"], out[prefix + "rsthosvd_rel_error"] = (
            sketch_ms(session, block, "rsthosvd", 3)
        )
        out[prefix + "sp_rsthosvd_ms"], _ = sketch_ms(
            session, block, "sp-rsthosvd", 2
        )
    session = spill.start(workdir)
    try:
        out[prefix + "sp_rsthosvd_spilled_ms"], _ = sketch_ms(
            session, mapped, "sp-rsthosvd", 1
        )
    finally:
        session.close()
    return out


def probe_plans(plan_keys, n_metas: int) -> dict:
    """Plan compile cold and cached, and the paper's planner on 5-D metas."""
    from repro import TensorMeta, TuckerSession
    from repro.bench.suite import paper_subsample
    from repro.hooi.portfolio import select_plan

    cold, hit = [], []
    with TuckerSession("sequential") as session:
        for _ in range(3):
            session.clear_cache()
            for dims, core, n_procs in plan_keys:
                meta = TensorMeta(dims=dims, core=core)
                for bucket in (cold, hit):
                    t0 = perf_counter()
                    session.compile(meta, n_procs)
                    bucket.append(perf_counter() - t0)
    seconds, flops, volume = [], 0, 0
    for meta in paper_subsample(5, n_metas):
        t0 = perf_counter()
        plan = select_plan(meta, 32).plan
        seconds.append(perf_counter() - t0)
        flops += plan.flops
        volume += plan.total_volume
    return {
        "session.compile_cold_ms": p50(cold) * 1e3,
        "session.compile_hit_us": p50(hit) * 1e6,
        "core.plan_ms_p50": p50(seconds) * 1e3,
        "core.plan_flops": flops,
        "core.plan_volume": volume,
    }


def probe_serve(serve, cases, workdir: str, rate_2w: float, seed: int) -> dict:
    """One worker with one client, a bare session, and the program's own
    tracer switched on, all over the serve mix."""
    from repro import TuckerSession

    single = replace(serve, workers=1, clients=1, warmup=3)
    server = single.start(workdir)
    try:
        single.warm(server, cases)
        checker = Checker()
        wall = single.drive(
            server, cases, 0, checker.record, seed,
            max_items=serve.trace_items // 2,
        )
    finally:
        single.stop(server)
    rate_1w = (checker.attempted - checker.failed) / wall
    plain, traced = [], []
    with TuckerSession("sequential") as off, TuckerSession(
        "sequential", trace=True
    ) as on:
        for _ in range(5):
            for case in cases:
                for session, bucket in ((off, plain), (on, traced)):
                    t0 = perf_counter()
                    session.run(case.data, case.core, **RUN)
                    bucket.append(perf_counter() - t0)
    return {
        "serve.scaling_2w": rate_2w / rate_1w,
        "serve.direct_run_ms_p50": p50(plain) * 1e3,
        "obs.trace_overhead_frac": p50(traced) / p50(plain) - 1.0,
    }


def probe_select_dist(case) -> dict:
    """The backend selector's decision time, and the simulated cluster's
    ledger against the paper's volume model on a small 4-D input."""
    from repro import TuckerSession
    from repro.backends import default_profile, select_backend

    profile = default_profile()
    dims = case.data.shape
    decision = timed(
        lambda: select_backend(
            dims, case.core, profile=profile, available_cores=2
        ),
        20,
    )
    with TuckerSession("simcluster", n_procs=8) as session:
        seconds, result = timed_value(
            lambda: session.run(case.data, case.core, **RUN)
        )
    return {
        "backends.select.decision_us": decision * 1e6,
        "dist.simcluster_item_ms": seconds * 1e3,
        "dist.ledger_volume":
            result.ledger.volume(op="reduce_scatter") / result.n_iters,
        "dist.model_volume":
            result.plan.ttm_volume + result.plan.core_ttm_volume,
    }
