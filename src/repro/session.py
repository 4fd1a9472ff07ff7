"""The session API: plan once, compile, run many tensors.

The paper's central design point is that planning (TTM-tree + grid DP)
consumes only metadata and is decoupled from execution; this module makes
that the shape of the public API:

* :func:`compile_plan` turns a :class:`~repro.core.planner.Plan` into a
  :class:`CompiledPlan` — a validated, backend-neutral schedule (tree,
  core-chain and STHOSVD :class:`~repro.backends.schedule.Step` programs)
  and a working dtype: immutable metadata any number of sessions may
  replay at once;
* :class:`TuckerSession` owns an :class:`~repro.backends.ExecutionBackend`
  and an LRU plan cache keyed on ``(dims, core, procs, planner, dtype)``;
  ``session.run`` / ``session.sthosvd`` / ``session.hooi`` execute compiled
  plans on the backend.

Quickstart::

    from repro.session import TuckerSession

    session = TuckerSession(backend="threaded")
    res = session.run(tensor, (8, 6, 5))        # compiles + caches the plan
    res2 = session.run(other_tensor, (8, 6, 5)) # plan-cache hit
    print(res.error, res2.from_cache, session.backend.stats())
"""

from __future__ import annotations

import logging
import math
import os
import queue as queue_mod
import threading
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.backends import (
    AUTO_BACKEND,
    STORAGE_MODES,
    BackendUnavailableError,
    ExecutionBackend,
    Selection,
    SimClusterBackend,
    StorageSelection,
    check_factors,
    compile_core_steps,
    compile_sthosvd_steps,
    compile_tree_steps,
    get_backend,
    load_profile,
    merge_profile,
    run_steps,
    run_sweep,
    select_backend,
    select_storage,
)
from repro.backends.blockpar import OC_LEASE_FACTOR
from repro.backends.select import resolve_auto_procs
from repro.backends.schedule import (
    RAND_METHODS,
    Handoff,
    Step,
    compile_handoff,
    compile_rand_steps,
    handoff_core_order,
)
from repro.storage import (
    DEFAULT_CHUNK_BYTES,
    MmapStore,
    check_codec,
    parse_bytes,
    warm_pages,
)
from repro.core.grids import feasible_procs
from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Plan, Planner
from repro.hooi.decomposition import TuckerDecomposition
from repro.hooi.portfolio import select_plan
from repro.hooi.sthosvd import sthosvd as host_sthosvd
from repro.mpi.stats import StatsLedger
from repro.obs import MetricsRegistry, Trace, Tracer, canonical_tag, safe_rate
from repro.obs.trace import NULL_TRACER
from repro.util import serial
from repro.util.dtypes import resolve_dtype
from repro.util.validation import check_core_dims, check_positive_int

logger = logging.getLogger("repro.session")

__all__ = [
    "BatchFailure",
    "BatchItem",
    "BatchResult",
    "CompiledPlan",
    "TuckerSession",
    "TuckerResult",
    "compile_plan",
]


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #


@dataclass
class TuckerResult:
    """Everything a decomposition run produces.

    ``errors`` has one entry per completed HOOI invocation;
    ``sthosvd_error`` is the initialization error. ``backend`` names the
    executing backend and ``from_cache`` reports whether the compiled plan
    came from the session's plan cache. When the session runs with
    ``backend="auto"``, ``auto_selected`` is true and
    ``selection_reason`` records why the selector chose this backend.
    ``ledger`` holds exactly this run's backend records — scoped, so a
    reused backend never inflates a later result's volumes — and
    ``stats`` is its uniform summary. ``storage`` reports where the
    working set lived (``"memory"`` or ``"mmap"``) and
    ``storage_reason`` why the policy picked it. Spilled runs also
    report the block codec (``spill_codec``), the encoded vs logical
    spill volume (``spill_bytes_written`` / ``spill_bytes_logical`` —
    their ratio is the achieved compression), and, for the lossy
    ``narrow`` codec, the largest recorded per-block relative error
    (``spill_error_bound``; ``0.0`` for lossless codecs).

    ``seconds`` is the wall-clock duration of this run's root span —
    the session times every run through its tracer, so result timings
    and traces cannot disagree. ``trace`` holds the run's drained
    :class:`~repro.obs.Trace` when the session was built with
    ``trace=True`` (``None`` otherwise).

    ``method`` names the initialization algorithm (``"exact"``,
    ``"rsthosvd"`` or ``"sp-rsthosvd"``). ``converged`` /
    ``stopped_reason`` report how the HOOI loop ended:
    ``"converged"`` (error delta within tolerance), ``"max_iters"``
    (iteration budget exhausted) or ``"non-monotone"`` (the error
    *increased* by more than the tolerance — the sweep is reported, not
    silently treated as converged). Runs without a HOOI phase keep the
    defaults.

    ``flops_reused`` counts the multiply-adds of the tree TTMs this run
    did not issue because a chain had just computed the same product
    (cross-phase reuse on the shared-memory backends). Such a product
    has no ledger record — nothing ran — so ``ledger.flops("hooi") +
    flops_reused`` is what the paper's per-invocation model charges.
    """

    decomposition: TuckerDecomposition
    plan: Plan
    errors: list[float]
    sthosvd_error: float
    n_iters: int = 0
    method: str = "exact"
    converged: bool = True
    stopped_reason: str = ""
    backend: str = ""
    from_cache: bool = False
    auto_selected: bool = False
    selection_reason: str = ""
    ledger: StatsLedger | None = None
    storage: str = "memory"
    storage_reason: str = ""
    spill_codec: str = "raw"
    spill_bytes_written: int = 0
    spill_bytes_logical: int = 0
    spill_error_bound: float = 0.0
    seconds: float = 0.0
    trace: Trace | None = None
    flops_reused: float = 0.0

    @property
    def error(self) -> float:
        return self.errors[-1] if self.errors else self.sthosvd_error

    @property
    def stats(self) -> dict[str, float]:
        """This run's ledger summary (volumes/FLOPs/seconds/events)."""
        return self.ledger.summary() if self.ledger is not None else {}

    @property
    def compression_ratio(self) -> float:
        return self.decomposition.compression_ratio


# --------------------------------------------------------------------- #
# batched results
# --------------------------------------------------------------------- #


@dataclass
class BatchItem:
    """One successfully decomposed item of a :meth:`TuckerSession.run_many`.

    ``index`` is the item's position in the input stream; ``seq`` is its
    execution position (plan-key grouping inside the in-flight window may
    execute items out of arrival order). ``source`` is the ``.npy`` path
    for file items and ``"item[i]"`` for in-memory arrays. ``seconds``
    is the item's run-root-span duration (== ``result.seconds``).
    """

    index: int
    source: str
    seq: int
    seconds: float
    result: TuckerResult

    @property
    def error(self) -> float:
        return self.result.error

    @property
    def backend(self) -> str:
        return self.result.backend

    @property
    def from_cache(self) -> bool:
        return self.result.from_cache


@dataclass
class BatchFailure:
    """One item a ``run_many(on_error="skip")`` call could not decompose."""

    index: int
    source: str
    error: str
    kind: str = ""


@dataclass
class BatchResult:
    """Everything a :meth:`TuckerSession.run_many` call produces.

    ``items`` (input order) carry the per-item :class:`TuckerResult`;
    ``ledger`` merges every item's per-run records; ``plans_compiled`` /
    ``cache_hits`` are the plan-cache deltas of this batch (N same-shape
    tensors compile exactly one plan: ``plans_compiled == 1``,
    ``cache_hits == N - 1``).
    """

    items: list[BatchItem]
    failures: list[BatchFailure]
    seconds: float
    ledger: StatsLedger
    plans_compiled: int
    cache_hits: int
    #: merged batch trace (batch root + every item's spans) on traced
    #: sessions; ``None`` otherwise. ``seconds`` is the batch root
    #: span's duration.
    trace: Trace | None = None

    @property
    def results(self) -> list[TuckerResult]:
        return [item.result for item in self.items]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def items_per_second(self) -> float:
        """Batch throughput (completed items over total wall seconds).

        The wall seconds come from the batch root span; a zero-duration
        or crash-truncated root degrades to a 0.0 rate — never a raise,
        never ``inf`` in a JSON payload (see :func:`repro.obs.safe_rate`).
        """
        return safe_rate(len(self.items), self.seconds)

    def stats(self) -> dict[str, float]:
        """Aggregate report: merged ledger summary + throughput counters."""
        out = self.ledger.summary()
        out.update(
            n_items=float(self.n_items),
            n_failures=float(len(self.failures)),
            seconds=self.seconds,
            items_per_second=self.items_per_second,
            plans_compiled=float(self.plans_compiled),
            cache_hits=float(self.cache_hits),
        )
        return out


@dataclass
class _PendingItem:
    """A materialized input waiting in the run_many in-flight window."""

    index: int
    source: str
    array: np.ndarray | None
    core: tuple[int, ...]
    group_key: tuple


def _maybe_cast(arr: np.ndarray, dtype) -> np.ndarray:
    """Convert to the working dtype now — unless the run can do better.

    A memory-mapped input needing conversion is returned *unconverted*:
    ``astype`` here would materialize the whole file in RAM, defeating
    lazy inputs exactly when they matter. The run-level
    :func:`_cast_for_run` finishes the job — chunked through the spill
    store when the run spills, plain ``astype`` when it is resident
    anyway.
    """
    dtype = np.dtype(dtype)
    if isinstance(arr, np.memmap) and arr.dtype != dtype:
        return arr
    return arr.astype(dtype, copy=False)


def _cast_for_run(arr: np.ndarray, dtype, store) -> np.ndarray:
    """The deferred half of :func:`_maybe_cast` (no-op when dtypes match)."""
    dtype = np.dtype(dtype)
    if arr.dtype == dtype:
        return arr
    if store is not None:
        key = store.next_key("cast")
        store.put(key, arr, dtype=dtype)  # chunked write-through cast
        return store.get(key)
    return arr.astype(dtype, copy=False)


def _check_storage_knobs(storage: str, memory_budget, spill_codec):
    """Fail fast on a bad storage mode, budget string or codec name;
    returns ``(budget bytes or None, codec)`` (``"auto"`` / ``None`` kept)."""
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"storage must be one of {STORAGE_MODES}, got {storage!r}"
        )
    budget = parse_bytes(memory_budget) if memory_budget is not None else None
    if spill_codec not in (None, "auto"):
        spill_codec = check_codec(spill_codec)
    return budget, spill_codec


def _item_source(raw, index: int) -> str:
    if isinstance(raw, (str, os.PathLike)):
        return os.fspath(raw)
    return f"item[{index}]"


def _materialize_item(raw, index: int, core_dims, dtype) -> _PendingItem:
    """Open one batch input (array or ``.npy`` path) and key it for grouping.

    Path items are opened *lazily* (``np.load(..., mmap_mode="r")``): the
    window holds a mapping plus metadata, not the tensor's bytes, so an
    item is never fully resident before its blocks are cut — windowed
    and skipped items cost pages touched, not tensors loaded.
    """
    source = _item_source(raw, index)
    if isinstance(raw, (str, os.PathLike)):
        array = np.load(source, mmap_mode="r")
        if not isinstance(array, np.ndarray):
            raise ValueError(f"{source} does not contain a single ndarray")
    elif isinstance(raw, np.ndarray):
        array = raw
    else:
        raise TypeError(
            f"batch item {index}: expected an ndarray or a .npy path, "
            f"got {type(raw).__name__}"
        )
    core = tuple(
        int(k)
        for k in (core_dims(array.shape) if callable(core_dims) else core_dims)
    )
    # Items agreeing on this key share a compiled plan under this call's
    # fixed planner/n_procs — the grouping the window scheduler uses.
    key = (tuple(array.shape), core, resolve_dtype(array, dtype).name)
    return _PendingItem(
        index=index, source=source, array=array, core=core, group_key=key
    )


class Prefetcher:
    """One background loader double-buffering item load against compute.

    While item *k* executes, :meth:`schedule` hands item *k+1*'s array to
    a daemon thread that faults its backing pages in through
    :func:`repro.storage.warm_pages` (memory-mapped ``.npy`` inputs and
    spill blocks; resident arrays are skipped for free). The executing
    run then finds hot pages instead of stalling on disk — the pipelined
    half of ``run_many`` and of every ``repro.serve`` worker.

    Prefetch is strictly advisory: warming failures are swallowed, and a
    ``max_bytes`` cap (a serving memory budget) bounds how much of a
    large item is pulled ahead. ``bytes_warmed`` is only read after
    :meth:`close` joins the thread.
    """

    def __init__(
        self,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_bytes: int | None = None,
    ) -> None:
        self._chunk_bytes = int(chunk_bytes)
        self._max_bytes = max_bytes
        self._queue: queue_mod.Queue = queue_mod.Queue()
        self._thread: threading.Thread | None = None
        self.bytes_warmed = 0
        self.items_warmed = 0

    def schedule(self, array: np.ndarray | None) -> None:
        """Warm ``array``'s pages in the background (no-op when resident)."""
        if array is None or not isinstance(array, np.memmap):
            return
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-prefetch", daemon=True
            )
            self._thread.start()
        self._queue.put(array)

    def _loop(self) -> None:
        while True:
            array = self._queue.get()
            if array is None:
                return
            try:
                warmed = warm_pages(
                    array,
                    chunk_bytes=self._chunk_bytes,
                    max_bytes=self._max_bytes,
                )
            except (OSError, ValueError) as exc:
                # advisory: a failed warm just means a cold first read
                logger.debug("page warm failed: %s", exc)
                continue
            self.bytes_warmed += warmed
            if warmed:
                self.items_warmed += 1

    def close(self) -> None:
        """Stop the loader (drains the pending warm first)."""
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout=30.0)
            self._thread = None


# --------------------------------------------------------------------- #
# compiled plans
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompiledPlan:
    """A plan lowered to a backend-neutral schedule, ready to execute.

    Metadata only, and immutable: one program per phase (the HOOI tree,
    the core chain, the STHOSVD pass) plus the working dtype. Running it
    changes nothing in it, so sessions on any number of threads may share
    one compiled plan.

    The two :class:`~repro.backends.schedule.Handoff` fields are the same
    phases compiled for cross-phase reuse, run where ``regrid`` is the
    identity: ``sthosvd_handoff`` when the STHOSVD order shares its
    leading modes with a root path of the tree (``None`` otherwise),
    ``core_handoff`` for the core chain of every sweep another may follow
    (``None`` only for one-mode tensors).
    """

    plan: Plan
    dtype: np.dtype
    planner_key: str
    tree_steps: tuple[Step, ...]
    core_steps: tuple[Step, ...]
    sthosvd_order: tuple[int, ...]
    sthosvd_steps: tuple[Step, ...]
    sthosvd_handoff: Handoff | None
    core_handoff: Handoff | None

    # -- delegated metadata ---------------------------------------------- #

    @property
    def meta(self) -> TensorMeta:
        return self.plan.meta

    @property
    def n_procs(self) -> int:
        return self.plan.n_procs

    @property
    def initial_grid(self) -> tuple[int, ...]:
        return self.plan.initial_grid

    # -- serialization ---------------------------------------------------- #

    def to_json(self) -> str:
        """Serialize; the embedded :class:`Plan` round-trips losslessly.

        Schedules are recompiled deterministically on load, so only the
        plan, dtype and planner key are stored.
        """
        return serial.dumps(
            {
                "version": 1,
                "dtype": self.dtype.name,
                "planner_key": self.planner_key,
                "plan": serial.loads(self.plan.to_json()),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CompiledPlan":
        d = serial.loads(text)
        plan = Plan.from_json(serial.dumps(d["plan"]))
        return compile_plan(
            plan, dtype=d["dtype"], planner_key=d["planner_key"]
        )


@dataclass
class _Reuse:
    """One run's cross-phase reuse state, local to that run.

    ``slots`` is the carry the Step programs work in (see
    :func:`~repro.backends.schedule.run_steps`): between two programs it
    holds what the last chain kept for the next tree. ``handoff`` is the
    compiled :class:`Handoff` those slots belong to — ``None`` while
    there are none, so the next tree runs cold — and ``flops`` sums what
    the warm trees skipped. Never stored on a plan, a backend or the
    session: the run that made it clears it, however it ends.
    """

    slots: dict = field(default_factory=dict)
    handoff: Handoff | None = None
    flops: int = 0


def _norm_identity_error(t_norm_sq: float, g_norm_sq: float) -> float:
    """Relative error of an orthogonal projection from the two squared
    norms, ``sqrt(max(|T|^2 - |G|^2, 0) / |T|^2)`` (0 for a zero input) —
    so no rank ever holds the full tensor to measure it."""
    if t_norm_sq == 0:
        return 0.0
    return float(math.sqrt(max(t_norm_sq - g_norm_sq, 0.0) / t_norm_sq))


def plan_cache_key(
    meta: TensorMeta, n_procs: int, planner_key: str, dtype
) -> tuple:
    """The session cache key: ``(dims, core, procs, planner, dtype)``."""
    return (meta.dims, meta.core, int(n_procs), planner_key, np.dtype(dtype).name)


def compile_plan(
    plan: Plan, *, dtype=np.float64, planner_key: str = "custom"
) -> CompiledPlan:
    """Lower a planner :class:`Plan` into a :class:`CompiledPlan`."""
    dtype = resolve_dtype(np.float64, dtype)
    meta = plan.meta
    sthosvd_order = tuple(optimal_chain_ordering(meta))
    core_order = tuple(plan.core_order) or sthosvd_order
    core_scheme = plan.core_scheme or None
    return CompiledPlan(
        plan=plan,
        dtype=dtype,
        planner_key=planner_key,
        tree_steps=compile_tree_steps(plan.tree, meta, scheme=plan.scheme),
        core_steps=compile_core_steps(core_order, core_scheme),
        sthosvd_order=sthosvd_order,
        sthosvd_steps=compile_sthosvd_steps(sthosvd_order, meta),
        sthosvd_handoff=compile_handoff(
            plan.tree, meta, sthosvd_order,
            partial(compile_sthosvd_steps, meta=meta),
        ),
        core_handoff=compile_handoff(
            plan.tree, meta, handoff_core_order(plan.tree, meta),
            compile_core_steps,
        ),
    )


# --------------------------------------------------------------------- #
# the session
# --------------------------------------------------------------------- #


class TuckerSession:
    """A long-lived decomposition context: one backend, one plan cache.

    Parameters
    ----------
    backend:
        A backend name (``"sequential"``, ``"simcluster"``, ``"threaded"``,
        ``"procpool"``), the adaptive spec ``"auto"`` (the backend is
        selected per input from its metadata, see
        :mod:`repro.backends.select`), or a ready
        :class:`ExecutionBackend` instance.
    cluster / n_procs / machine:
        Configuration for a freshly built ``"simcluster"`` backend (and
        ``n_procs`` caps a fresh ``"threaded"`` / ``"procpool"`` pool or
        anchors ``"auto"`` selection).
    cache_size:
        Maximum number of compiled plans kept (LRU eviction).
    calibration:
        Only for ``backend="auto"``: a profile dict (as produced by
        :func:`repro.backends.calibrate`) or a path to a persisted profile
        JSON; defaults to the machine profile on disk, falling back to the
        built-in cost model.
    storage:
        Where each run's working set lives: ``"memory"`` (fully
        resident, the historical behavior), ``"mmap"`` (always spill to
        memory-mapped block files), or ``"auto"`` (the default: spill
        exactly when ``memory_budget`` — or ``$REPRO_MEMORY_BUDGET`` —
        is set and the input's bytes exceed it). Overridable per run.
    memory_budget:
        Resident-byte budget (int, or ``"512M"``-style string) the
        storage policy holds spilled runs to; out-of-core kernels cut
        their blocks from it.
    spill_dir:
        Root directory for spill files (default ``$REPRO_SPILL_DIR``,
        else the system tempdir). Each spilled run uses a private
        subdirectory, removed when the run finishes.
    spill_codec:
        How spilled blocks are encoded on disk: ``"auto"`` (the
        default: raw, unless a calibrated profile's measured
        encode/decode rates say compression pays), ``"raw"``
        (memmap-able flat files), ``"zlib"`` / ``"zlib:<level>"``
        (lossless deflate), or ``"narrow"`` (lossy float64→float32
        with the realized error bound recorded per block and surfaced
        as ``result.spill_error_bound``). Overridable per run; the
        lossy ``narrow`` is never chosen automatically.
    trace:
        ``True`` to record a full :class:`~repro.obs.Trace` per run
        (``result.trace``): phase spans, one step span per ledger
        record, spill I/O spans, procpool worker fragments, plus the
        plan's modeled per-step volumes for ``repro trace summarize``.
        A ready :class:`~repro.obs.Tracer` is also accepted (shared
        timelines across sessions). Default off: execution still times
        runs through a root span (``result.seconds``) but records
        nothing else — kernels see only the no-op tracer.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "sequential",
        *,
        cluster=None,
        n_procs: int | None = None,
        machine=None,
        cache_size: int = 32,
        calibration=None,
        storage: str = "auto",
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str = "auto",
        trace: bool | Tracer = False,
    ) -> None:
        self._auto = isinstance(backend, str) and backend == AUTO_BACKEND
        self._selection: Selection | None = None
        if self._auto:
            if cluster is not None or machine is not None:
                raise ValueError(
                    "backend='auto' does not accept cluster=/machine= "
                    "(simcluster is never auto-selected; name it explicitly)"
                )
            self._auto_procs = (
                check_positive_int(n_procs, "n_procs")
                if n_procs is not None
                else None
            )
            # Partial dicts are merged over the defaults, exactly like
            # profiles loaded from disk.
            self._profile = (
                merge_profile(calibration)
                if isinstance(calibration, dict)
                else load_profile(calibration)
            )
            self._backends: dict[tuple[str, int], ExecutionBackend] = {}
            #: set on first selection; stays the last-used backend after.
            self.backend: ExecutionBackend | None = None
        else:
            if calibration is not None:
                raise ValueError(
                    "calibration= only applies to backend='auto'"
                )
            self._profile = None
            self.backend = get_backend(
                backend, cluster=cluster, n_procs=n_procs, machine=machine
            )
        self._cache: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self._cache_size = check_positive_int(cache_size, "cache_size")
        self._hits = 0
        self._misses = 0
        # Concurrency: the cache lock keeps LRU get/put/evict (and the
        # hit/miss counters) consistent under concurrent compiles; the
        # run lock serializes execution — per-run ledger scoping and
        # tracer mark/drain are positional, so two interleaved runs on
        # one backend would attribute each other's records. Serving
        # layers that want true overlap give each worker its own session
        # (see repro.serve); sharing one session across threads is then
        # *correct*, just serialized.
        self._cache_lock = threading.RLock()
        self._run_lock = threading.RLock()
        self._storage = storage
        self._memory_budget, self._spill_codec = _check_storage_knobs(
            storage, memory_budget, spill_codec
        )
        self._spill_dir = spill_dir
        # The session always owns a real tracer: the per-run root span
        # is what result.seconds reads even with tracing off (one span
        # per run, drained immediately — no accumulation). Inner
        # instrumentation activates only when `trace` is truthy.
        if isinstance(trace, Tracer):
            self.tracer = trace
            self._trace_enabled = True
        else:
            self.tracer = Tracer()
            self._trace_enabled = bool(trace)
        self.metrics = MetricsRegistry()
        #: trace of the most recent *failed* traced run (``on_error=
        #: "skip"`` batches fold these into the batch trace).
        self.last_error_trace: Trace | None = None

    # -- storage policy ---------------------------------------------------- #

    def _select_storage(
        self, nbytes: int, storage: str | None, memory_budget,
        spill_codec: str | None = None,
    ) -> StorageSelection:
        """Resolve per-run knobs over the session defaults.

        Auto sessions hand the selector their calibration profile, which
        is what lets ``codec="auto"`` rank zlib against raw with measured
        encode/decode rates (uncalibrated selections always stay raw).
        """
        return select_storage(
            nbytes,
            storage if storage is not None else self._storage,
            memory_budget
            if memory_budget is not None
            else self._memory_budget,
            codec=(
                spill_codec if spill_codec is not None else self._spill_codec
            ),
            profile=self._profile,
        )

    def _open_store(
        self, selection: StorageSelection, spill_dir: str | None
    ) -> MmapStore | None:
        """A run-scoped spill store, or ``None`` for in-memory runs.

        ``max_block_bytes`` is the budget divided by the out-of-core
        lease factor, so a full worker fan-out's concurrent block leases
        stay within the budget. The write-through chunk comes from the
        selection (a calibrated profile's measured sweet spot) capped at
        the block geometry; the selection's codec becomes the store's
        default for every spilled block.
        """
        if not selection.spilled:
            return None
        budget = selection.memory_budget
        # `is not None`: a 0 budget means the finest practical cut (one
        # page), not the unbounded default — 1-byte blocks would turn
        # spills into per-element Python loops.
        max_block = (
            max(4096, budget // OC_LEASE_FACTOR)
            if budget is not None
            else None
        )
        chunk = (
            selection.chunk_bytes
            if selection.chunk_bytes is not None
            else DEFAULT_CHUNK_BYTES
        )
        return MmapStore(
            root=spill_dir if spill_dir is not None else self._spill_dir,
            max_block_bytes=max_block,
            chunk_bytes=(
                min(chunk, max_block) if max_block is not None else chunk
            ),
            codec=selection.codec,
        )

    def prefetch_chunk_bytes(
        self, memory_budget: int | str | None = None
    ) -> int:
        """The page-warm chunk size matching this session's store geometry.

        Prefetch leases its warm chunks through the resident gauge, so it
        must never lease a bigger chunk than the budget-bounded store
        itself would write: mirror :meth:`_open_store`'s arithmetic
        (budget over the lease factor, floored at one page, capped at
        the default chunk). Unbudgeted sessions keep the default.
        """
        budget = (
            parse_bytes(memory_budget)
            if memory_budget is not None
            else self._memory_budget
        )
        if budget is None:
            return DEFAULT_CHUNK_BYTES
        return min(DEFAULT_CHUNK_BYTES, max(4096, budget // OC_LEASE_FACTOR))

    # -- adaptive backend selection --------------------------------------- #

    def _auto_select(
        self,
        meta: TensorMeta,
        n_procs: int | None,
        dtype: np.dtype,
        storage: StorageSelection | None = None,
        algo: dict | None = None,
    ) -> None:
        """Pick and install the backend for this input (auto mode only).

        Backend instances are cached per name so their ledgers persist
        across runs; ``self.backend`` always points at the last selection.
        ``storage`` is this run's resolved storage verdict: whether the
        input will spill changes the scores (spill I/O charged, staging
        copies dropped), so the selector is told up front. ``algo``
        carries the run's ``method`` / ``oversample`` / ``power_iters``,
        so a randomized run is priced as sketches, not as exact sweeps.
        """
        if not self._auto:
            return
        if storage is None:
            # compile() ahead of any run: price under the session's own
            # storage defaults.
            storage = self._select_storage(
                meta.cardinality * dtype.itemsize, None, None
            )
        procs = n_procs if n_procs is not None else self._auto_procs
        effective_procs = resolve_auto_procs(procs)
        selection = select_backend(
            meta.dims,
            meta.core,
            n_procs=procs,
            dtype=dtype,
            profile=self._profile,
            spilled=storage.spilled,
            # Spilled scoring charges the codec this run will spill with.
            codec=storage.codec,
            # Instances cached at exactly this worker count have already
            # paid their startup (pool spin-up); don't charge it again. A
            # same-name pool at a *different* count must be rebuilt, so
            # it is not warm.
            warm={
                name
                for name, p in self._backends
                if p == effective_procs
            },
            **(algo or {}),
        )
        # Try the winner, then the remaining candidates in score order: a
        # backend the host cannot provide (no /dev/shm, say) must degrade
        # auto mode, never crash it. Instances are cached per (name,
        # procs) so a changed n_procs builds a correctly sized pool.
        ranked = sorted(selection.scores, key=selection.scores.get)
        errors = []
        for name in ranked:
            key = (name, selection.n_procs)
            backend = self._backends.get(key)
            if backend is None:
                try:
                    backend = get_backend(name, n_procs=selection.n_procs)
                except BackendUnavailableError as exc:
                    errors.append(str(exc))
                    continue
                # A same-name pool at a superseded worker count would
                # otherwise keep its workers alive for the session's
                # lifetime; shut it down before caching the replacement.
                for stale_key in [
                    k for k in self._backends if k[0] == name
                ]:
                    self._backends.pop(stale_key).close()
                self._backends[key] = backend
            self.backend = backend
            if name != selection.backend:
                selection = replace(
                    selection,
                    backend=name,
                    reason=(
                        f"{selection.reason}; fell back to {name} "
                        f"(unavailable: {'; '.join(errors)})"
                    ),
                )
            self._selection = selection
            logger.debug(
                "auto-selected backend %s (n_procs=%d): %s",
                selection.backend, selection.n_procs, selection.reason,
            )
            self._tr().event(
                "select:backend",
                backend=selection.backend,
                n_procs=selection.n_procs,
                reason=selection.reason,
            )
            return
        raise BackendUnavailableError(
            f"no auto-eligible backend is available: {'; '.join(errors)}",
            backend="auto",
            config={"dims": meta.dims, "core": meta.core},
        )

    @property
    def last_selection(self) -> Selection | None:
        """The auto-selector's verdict for the most recent input."""
        return self._selection

    def close(self) -> None:
        """Shut down every backend this session owns (worker pools).

        The session stays usable: pool backends reopen on next use, and
        auto mode simply builds fresh instances.
        """
        with self._run_lock:
            if self._auto:
                for backend in self._backends.values():
                    backend.close()
                self._backends.clear()
            if self.backend is not None:
                self.backend.close()

    def __enter__(self) -> "TuckerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tracing ----------------------------------------------------------- #

    def _tr(self) -> Tracer:
        """The live tracer for instrumentation, or the shared no-op.

        Only the per-run root span bypasses this (it must exist for
        ``result.seconds`` even untraced); every other instrumentation
        point routes here so disabled tracing costs one attribute read.
        """
        return self.tracer if self._trace_enabled else NULL_TRACER

    @contextmanager
    def _observed(self, run_store=None):
        """Point the resolved backend (and spill store) at the tracer.

        Attaches the ledger observer — every :class:`Record` the backend
        appends becomes a ``kind="step"`` span — plus the backend and
        store tracer references (worker fragments, spill I/O spans).
        Always restored: a crashed run leaves no observer behind.
        """
        if not self._trace_enabled:
            yield
            return
        backend = self.backend
        ledger = backend.ledger
        prev_observer = ledger.observer
        prev_tracer = backend.tracer
        prev_store_tracer = run_store.tracer if run_store is not None else None
        ledger.observer = self.tracer.on_record
        backend.tracer = self.tracer
        if run_store is not None:
            run_store.tracer = self.tracer
        try:
            yield
        finally:
            ledger.observer = prev_observer
            backend.tracer = prev_tracer
            if run_store is not None:
                run_store.tracer = prev_store_tracer

    def _finish_trace(self, root, tmark: int) -> Trace | None:
        """Drain this run's spans; fold run metrics; ``None`` untraced."""
        self.metrics.counter("runs").inc()
        self.metrics.histogram("run_seconds").observe(root.seconds)
        # Untraced this is just the root span; draining keeps memory flat.
        trace = self.tracer.drain(tmark)
        if not self._trace_enabled:
            return None
        trace.meta.update(dict(root.attrs))
        self._fold_metrics(trace)
        trace.meta["metrics"] = self.metrics.snapshot()
        return trace

    def _stash_error_trace(self, tmark: int) -> None:
        """Preserve a failed run's partial spans (crash forensics)."""
        trace = self.tracer.drain(tmark)
        if self._trace_enabled:
            roots = trace.roots()
            if roots:
                trace.meta.update(dict(roots[-1].attrs))
            self.last_error_trace = trace

    def _fold_metrics(self, trace: Trace) -> None:
        """Update the session registry from one run's spans."""
        for span in trace.spans:
            if span.kind == "step":
                component = canonical_tag(span.name).split(":", 1)[0]
                self.metrics.histogram(
                    f"step_seconds:{component}"
                ).observe(span.seconds)
            elif span.kind == "io":
                name = "spill_write_bytes" if span.name == "spill:write" else "spill_read_bytes"
                self.metrics.counter(name).inc(
                    float(span.attrs.get("bytes", 0) or 0)
                )
        workers = trace.by_kind("worker")
        if workers:
            busy = sum(s.seconds for s in workers)
            n_workers = int(getattr(self.backend, "n_workers", 1) or 1)
            wall = trace.seconds
            if wall > 0:
                self.metrics.gauge("pool_utilization").set(
                    min(1.0, busy / (wall * n_workers))
                )
        peak = trace.meta.get("resident_peak")
        if peak:
            self.metrics.gauge("resident_peak_bytes").max(float(peak))

    # -- plan cache ------------------------------------------------------- #

    def cache_info(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "maxsize": self._cache_size,
            }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    def _resolve_procs(
        self,
        planner: str | Planner,
        n_procs: int | None,
        meta: TensorMeta | None = None,
    ) -> int:
        if isinstance(planner, Planner):
            procs = planner.n_procs
        elif n_procs is not None:
            procs = check_positive_int(n_procs, "n_procs")
        else:
            procs = self.backend.default_procs
        if (
            isinstance(self.backend, SimClusterBackend)
            and procs != self.backend.cluster.n_procs
        ):
            config = {
                "requested_n_procs": procs,
                "cluster_n_procs": self.backend.cluster.n_procs,
            }
            if meta is not None:
                config["dims"] = meta.dims
                config["core"] = meta.core
            raise BackendUnavailableError(
                f"plan is for {procs} procs but the cluster has "
                f"{self.backend.cluster.n_procs} ranks",
                backend=self.backend.name,
                config=config,
            )
        return procs

    def _cache_get(self, key: tuple, plan: Plan | None = None) -> CompiledPlan | None:
        """LRU lookup, counting the hit or miss; ``plan`` pins an
        identity-keyed entry to the very object it was compiled from."""
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None and (plan is None or cached.plan is plan):
                self._cache.move_to_end(key)
                self._hits += 1
                self.metrics.counter("plan_cache_hits").inc()
                return cached
            self._misses += 1
        self.metrics.counter("plan_cache_misses").inc()
        return None

    def _cache_put(self, key: tuple, compiled: CompiledPlan) -> CompiledPlan:
        with self._cache_lock:
            self._cache[key] = compiled
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return compiled

    def _compile(
        self,
        meta: TensorMeta,
        n_procs: int | None,
        planner: str | Planner,
        dtype,
        storage: StorageSelection | None = None,
        algo: dict | None = None,
    ) -> tuple[CompiledPlan, bool]:
        """Compile (or fetch from cache); returns ``(plan, from_cache)``."""
        dtype = resolve_dtype(np.float64, dtype) if dtype is not None else np.dtype(np.float64)
        self._auto_select(
            meta,
            planner.n_procs if isinstance(planner, Planner) else n_procs,
            dtype,
            storage,
            algo,
        )
        procs = self._resolve_procs(planner, n_procs, meta)
        if (
            n_procs is None
            and not isinstance(planner, Planner)
            and not isinstance(self.backend, SimClusterBackend)
        ):
            # The count came from a machine default (cores - 1, say), not
            # a request: clamp it to a plannable P — a prime default
            # larger than every core dim admits no valid grid at all.
            procs = feasible_procs(meta, procs)
        if isinstance(planner, Planner):
            planner_key = f"{planner.tree_kind}:{planner.grid_kind}"
        else:
            planner_key = str(planner)
        key = plan_cache_key(meta, procs, planner_key, dtype)
        cached = self._cache_get(key)
        if cached is not None:
            return cached, True
        logger.info(
            "compiling plan: dims=%s core=%s n_procs=%d planner=%s",
            meta.dims, meta.core, procs, planner_key,
        )
        # Planning runs unlocked (it can be slow); two threads racing the
        # same key both compile, last-put wins — wasted work, never a
        # corrupted cache.
        if isinstance(planner, Planner):
            plan = planner.plan(meta)
        elif planner == "portfolio":
            plan = select_plan(meta, procs).plan
        else:
            plan = Planner(procs, tree=planner, grid="dynamic").plan(meta)
        compiled = compile_plan(plan, dtype=dtype, planner_key=planner_key)
        return self._cache_put(key, compiled), False

    def compile(
        self,
        meta: TensorMeta,
        n_procs: int | None = None,
        *,
        planner: str | Planner = "portfolio",
        dtype=None,
    ) -> CompiledPlan:
        """Plan + lower ``meta`` (cached).

        ``planner`` is ``"portfolio"`` (model every configuration, keep the
        fastest), a tree kind (planned with dynamic grids), or a ready
        :class:`Planner`. ``n_procs`` defaults to the backend's natural
        parallelism. Plans are metadata-only and identical for every
        storage mode, so the same compiled plan serves resident and
        spilled executions alike.
        """
        compiled, _ = self._compile(meta, n_procs, planner, dtype)
        return compiled

    # -- input handling --------------------------------------------------- #

    def _prepare(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None,
        plan: CompiledPlan | Plan | None,
        planner: str | Planner,
        n_procs: int | None,
        dtype,
        storage: str | None,
        memory_budget: int | str | None,
        spill_codec: str | None,
        algo: dict,
    ) -> tuple[np.ndarray, CompiledPlan, bool, StorageSelection]:
        """Resolve dtype and storage, validate shapes, compile-or-fetch.

        The run's storage overrides are resolved here, once: the
        :class:`StorageSelection` feeds backend selection and travels on.
        """
        # Keep ndarray subclasses (np.memmap in particular): a lazily
        # opened .npy must reach distribute() as a mapping so spilled
        # runs can wrap the file in place instead of materializing it.
        arr = tensor if isinstance(tensor, np.ndarray) else np.asarray(tensor)
        if isinstance(plan, CompiledPlan) and dtype is None:
            work_dtype = plan.dtype
        else:
            work_dtype = resolve_dtype(arr, dtype)
        # Policy sees the *working* bytes: a float32 file run at float64
        # occupies twice its on-disk size once cast.
        selection = self._select_storage(
            arr.size * work_dtype.itemsize, storage, memory_budget,
            spill_codec,
        )
        if isinstance(plan, (Plan, CompiledPlan)):
            if plan.meta.dims != arr.shape:
                raise ValueError(
                    f"tensor shape {arr.shape} != plan dims {plan.meta.dims}"
                )
            self._auto_select(
                plan.meta, plan.n_procs, work_dtype, selection, algo
            )
            if isinstance(plan, CompiledPlan):
                compiled, from_cache = plan, False
                if work_dtype != plan.dtype:
                    compiled = compile_plan(
                        plan.plan, dtype=work_dtype,
                        planner_key=plan.planner_key,
                    )
            else:
                # Explicit plans are cached by object identity (Plan holds
                # unhashable parts); the cached CompiledPlan retains the
                # plan, so the id cannot be recycled while the entry lives.
                key = ("explicit", id(plan), work_dtype.name)
                compiled = self._cache_get(key, plan)
                from_cache = compiled is not None
                if compiled is None:
                    compiled = self._cache_put(
                        key,
                        compile_plan(
                            plan,
                            dtype=work_dtype,
                            planner_key=f"{plan.tree_kind}:{plan.grid_kind}",
                        ),
                    )
        else:
            if core_dims is None:
                raise ValueError("core_dims is required when no plan is given")
            meta = TensorMeta(
                dims=arr.shape, core=check_core_dims(core_dims, arr.shape)
            )
            compiled, from_cache = self._compile(
                meta, n_procs, planner, work_dtype, selection, algo
            )
        return _maybe_cast(arr, work_dtype), compiled, from_cache, selection

    # -- algorithms ------------------------------------------------------- #

    def _hooi_loop(
        self,
        handle,
        factors: Sequence[np.ndarray],
        compiled: CompiledPlan,
        max_iters: int,
        tol: float,
        t_norm_sq: float | None = None,
        reuse: _Reuse | None = None,
    ) -> tuple[TuckerDecomposition, list[float], bool, str]:
        """Iterate HOOI over the distributed input ``handle``.

        With ``reuse``, a sweep whose predecessor (the init pass, or the
        previous sweep's core chain) handed its prefix over runs the warm
        tree program; and every sweep another may follow runs its core
        chain along a root path of the tree, so there is a prefix to hand
        over. The last permitted sweep keeps the plan's own core order.
        """
        backend = self.backend
        tr = self._tr()
        factors = check_factors(factors, compiled.meta, dtype=compiled.dtype)
        if t_norm_sq is None:
            # An init pass that already reduced the input norm over this
            # very handle passes it in — on an out-of-core handle this
            # reduction is a complete pass over the spill files.
            t_norm_sq = backend.fro_norm_sq(handle, tag="norm:input")
        errors: list[float] = []
        core_handle = None
        converged = False
        stopped_reason = "max_iters"
        with tr.span("hooi", kind="phase"):
            for it in range(max_iters):
                tag = f"hooi:it{it}"
                warm = reuse.handoff if reuse else None
                following = (
                    compiled.core_handoff
                    if reuse and it < max_iters - 1
                    else None
                )
                with tr.span(
                    tag, kind="phase", iteration=it,
                    reused=[f"{tag}:{t}" for t in warm.reused] if warm else [],
                ):
                    factors, core_handle = run_sweep(
                        backend, handle, factors,
                        warm.tree_steps if warm else compiled.tree_steps,
                        following.chain_steps
                        if following
                        else compiled.core_steps,
                        tag=tag, carry=reuse.slots if reuse else None,
                    )
                    if reuse:
                        reuse.flops += warm.flops_reused if warm else 0
                        reuse.handoff = following
                    g_norm_sq = backend.fro_norm_sq(
                        core_handle, tag="norm:core"
                    )
                errors.append(_norm_identity_error(t_norm_sq, g_norm_sq))
                if it > 0:
                    delta = errors[-2] - errors[-1]
                    # ``delta < tol`` also fires on *rising* error (delta
                    # very negative); that sweep used to be reported as
                    # converged. Keep the stopping set identical (so
                    # ``tol=-inf`` still means "never stop early", and
                    # 1-ulp float32 jitter never ends a run a different
                    # backend would continue) but label the two cases
                    # apart.
                    if delta < tol:
                        if abs(delta) < tol:
                            converged = True
                            stopped_reason = "converged"
                        else:
                            stopped_reason = "non-monotone"
                        break
        dec = TuckerDecomposition(
            core=self._gather(core_handle), factors=list(factors)
        )
        return dec, errors, converged, stopped_reason

    def _gather(self, handle) -> np.ndarray:
        """The host copy of a core handle. Copy: shared-memory cores may
        alias reusable output buffers that the next run would overwrite."""
        with self._tr().span("gather", kind="phase"):
            return np.array(self.backend.gather(handle), copy=True)

    def hooi(
        self,
        tensor: np.ndarray,
        init,
        *,
        plan: CompiledPlan | Plan | None = None,
        planner: str | Planner = "optimal",
        n_procs: int | None = None,
        dtype=None,
        max_iters: int = 10,
        tol: float = 1e-8,
        storage: str | None = None,
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str | None = None,
    ) -> TuckerResult:
        """Iterate HOOI from an initial decomposition (or factor list).

        ``init`` is a :class:`TuckerDecomposition` or a sequence of factor
        matrices. Per-iteration errors come from the norm identity using
        backend reductions, so no rank ever holds the full tensor on the
        distributed backend. ``storage`` / ``memory_budget`` /
        ``spill_dir`` / ``spill_codec`` override the session's storage
        policy for this run.
        """
        return self._run(
            "hooi", tensor, None, init=init, plan=plan, planner=planner,
            n_procs=n_procs, dtype=dtype, max_iters=max_iters, tol=tol,
            storage=storage, memory_budget=memory_budget,
            spill_dir=spill_dir, spill_codec=spill_codec,
        )

    def _init_pass(
        self, compiled: CompiledPlan, handle, algo: dict, seed: int,
        reuse: _Reuse | None = None,
    ) -> tuple[TuckerDecomposition, float, float]:
        """The initialization pass; ``(decomposition, error, input_norm_sq)``.

        ``algo`` holds the run's ``method`` / ``oversample`` /
        ``power_iters``: the exact STHOSVD replays the plan's
        ``sthosvd_steps``, a randomized method compiles its own program.
        ``handle`` is the already distributed input (placed once, shared
        across phases, never mutated by the kernels); its squared norm
        rides along so the HOOI phase doesn't re-reduce it — the exact
        pass reduces it, a sketch pass gets it as a free by-product. The
        final truncated handle *is* the core (a projection of the input),
        so the norm identity gives the exact relative error; only
        ``sp-rsthosvd``'s core is solved host-side from the sketches, and
        for it the identity yields a clamped estimate.

        With ``reuse`` the two sequentially truncating passes (exact,
        ``rsthosvd``) run as the keeping chain of the plan's
        ``sthosvd_handoff``, when it has one, and leave the first sweep
        its prefix; ``sp-rsthosvd`` never truncates, so it has none.
        """
        backend = self.backend
        meta = compiled.meta
        method = algo["method"]
        handoff = (
            compiled.sthosvd_handoff
            if reuse and method != "sp-rsthosvd"
            else None
        )
        if method == "exact":
            name, attrs, rng = "sthosvd", {}, None
            steps = handoff.chain_steps if handoff else compiled.sthosvd_steps
        else:
            name, rng = method, np.random.default_rng(seed)
            attrs = dict(
                seed=int(seed), oversample=int(algo["oversample"]),
                power_iters=int(algo["power_iters"]),
            )
            steps = compile_rand_steps(
                compiled.sthosvd_order, meta,
                keep=handoff.keep if handoff else (), **algo,
            )
        factors: dict[int, np.ndarray] = {}
        with self._tr().span(name, kind="phase", **attrs):
            if rng is None:
                t_norm_sq = backend.fro_norm_sq(handle, tag="norm:input")
            current, sketched_norm_sq, core = run_steps(
                backend, handle, steps, factors,
                tag=name, rng=rng, dtype=compiled.dtype,
                carry=reuse.slots if handoff else None,
            )
            if handoff:
                reuse.handoff = handoff
            if rng is not None:
                t_norm_sq = float(sketched_norm_sq)
            if core is None:
                g_norm_sq = backend.fro_norm_sq(current, tag="norm:core")
            else:
                g_norm_sq = float(np.dot(core.ravel(), core.ravel()))
        if core is None:
            core = self._gather(current)
        dec = TuckerDecomposition(
            core=core, factors=[factors[m] for m in range(meta.ndim)]
        )
        return dec, _norm_identity_error(t_norm_sq, g_norm_sq), t_norm_sq

    def sthosvd(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None = None,
        *,
        plan: CompiledPlan | Plan | None = None,
        planner: str | Planner = "portfolio",
        n_procs: int | None = None,
        dtype=None,
        storage: str | None = None,
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str | None = None,
    ) -> TuckerResult:
        """One STHOSVD pass on the backend (static grid, optimal order)."""
        return self._run(
            "sthosvd", tensor, core_dims, plan=plan, planner=planner,
            n_procs=n_procs, dtype=dtype, skip_hooi=True, storage=storage,
            memory_budget=memory_budget, spill_dir=spill_dir,
            spill_codec=spill_codec,
        )

    def run(
        self,
        tensor: np.ndarray,
        core_dims: Sequence[int] | None = None,
        *,
        plan: CompiledPlan | Plan | None = None,
        planner: str | Planner = "portfolio",
        n_procs: int | None = None,
        dtype=None,
        max_iters: int = 10,
        tol: float = 1e-8,
        skip_hooi: bool = False,
        method: str = "exact",
        oversample: int = 5,
        power_iters: int = 0,
        seed: int = 0,
        storage: str | None = None,
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str | None = None,
    ) -> TuckerResult:
        """The full pipeline: STHOSVD init + HOOI refinement to tolerance.

        Repeated calls with same-shaped tensors hit the plan cache
        (``result.from_cache``). ``dtype`` overrides the working precision;
        by default float32 inputs stay float32, everything else runs in
        float64.

        ``method`` picks the initialization algorithm. ``"exact"`` (the
        default) is the Gram+EVD STHOSVD. ``"rsthosvd"`` replaces each
        mode's Gram step with a randomized range finder — the mode-``n``
        basis comes from a small sketch ``W = Y x_{m != n} Omega_m``
        with Gaussian test matrices of width ``core[n] + oversample``
        (clamped to the mode length), optionally sharpened by
        ``power_iters`` power iterations — and still truncates
        sequentially. ``"sp-rsthosvd"`` accumulates every mode sketch
        plus a core sketch in one single pass over the input and solves
        the core from the sketches alone; its reported error is a
        clamped norm-identity *estimate* (the sketched core is not a
        projection). Both are deterministic given ``seed``
        (``numpy.random.default_rng``). Randomized runs execute on the
        configured backend — including ``simcluster``, whose ledger then
        charges the sketch's reduced communication volumes.

        ``storage`` / ``memory_budget`` / ``spill_dir`` override the
        session's storage policy for this run: a spilled run
        (``result.storage == "mmap"``) stages the tensor through
        memory-mapped block files in a run-private spill directory —
        removed before this method returns — instead of holding it
        resident, so inputs larger than RAM (or than the budget)
        decompose on the shared-memory backends. (``simcluster`` spills
        its per-rank bricks too, but its sequential STHOSVD init still
        materializes working copies — it is a measurement instrument,
        not a capacity path.)
        The run is timed through the session tracer's root span
        (``result.seconds``); on traced sessions ``result.trace`` holds
        the full span tree, a metrics snapshot and the plan's modeled
        per-step volumes.
        """
        return self._run(
            "run", tensor, core_dims, plan=plan, planner=planner,
            n_procs=n_procs, dtype=dtype, max_iters=max_iters, tol=tol,
            skip_hooi=skip_hooi, method=method, oversample=oversample,
            power_iters=power_iters, seed=seed, storage=storage,
            memory_budget=memory_budget, spill_dir=spill_dir,
            spill_codec=spill_codec,
        )

    # -- the run pipeline -------------------------------------------------- #

    def _run(self, entry: str, tensor, core_dims, **knobs) -> TuckerResult:
        """The run envelope behind :meth:`run` / :meth:`sthosvd` / :meth:`hooi`.

        ``entry`` names the public method (the root span's ``method``);
        a failed run's partial spans are stashed before it propagates.
        """
        attrs = {"algorithm": knobs["method"]} if "method" in knobs else {}
        with self._run_lock:
            tmark = self.tracer.mark()
            try:
                with self.tracer.span(
                    "run", kind="phase", method=entry, **attrs
                ) as root:
                    result = self._run_impl(
                        entry, tensor, core_dims, root=root, **knobs
                    )
            except BaseException:
                self._stash_error_trace(tmark)
                raise
            result.seconds = root.seconds
            result.trace = self._finish_trace(root, tmark)
            return result

    def _annotate_root(
        self, root, compiled: CompiledPlan, selection, from_cache: bool
    ) -> None:
        """Run-level metadata on the root span (becomes ``trace.meta``)."""
        root.set(
            backend=self.backend.name,
            storage=selection.mode,
            itemsize=int(compiled.dtype.itemsize),
            dims=list(compiled.meta.dims),
            core=list(compiled.meta.core),
            n_procs=int(compiled.n_procs),
            from_cache=bool(from_cache),
        )
        if self._trace_enabled:
            from repro.obs import modeled_step_volumes

            root.set(modeled_volumes=modeled_step_volumes(compiled.plan))

    def _result(
        self, compiled, from_cache, mark, selection, run_store, **produced
    ) -> TuckerResult:
        """Assemble a run's result: what the algorithm ``produced``, plus
        the plan / backend / storage bookkeeping every run reports alike."""
        return TuckerResult(
            plan=compiled.plan,
            n_iters=len(produced["errors"]),
            backend=self.backend.name,
            from_cache=from_cache,
            auto_selected=self._auto,
            # only auto sessions ever record a selection
            selection_reason=self._selection.reason if self._selection else "",
            ledger=self.backend.ledger_since(mark),
            storage=selection.mode,
            storage_reason=selection.reason,
            **(run_store.codec_stats() if run_store is not None else {}),
            **produced,
        )

    def _run_impl(
        self, entry, tensor, core_dims, *, root, plan, planner, n_procs,
        dtype, storage, memory_budget, spill_dir, spill_codec, init=None,
        max_iters=0, tol=0.0, skip_hooi=False, method="exact",
        oversample=5, power_iters=0, seed=0,
    ) -> TuckerResult:
        """Compile, place, initialize, refine: the pipeline every entry runs.

        The entries differ only in the init step — the caller's factors
        (``hooi``), the host STHOSVD (exact ``run`` on simcluster), a
        randomized pass or the backend STHOSVD (everything else) — and
        in whether the HOOI loop follows.
        """
        if method != "exact" and method not in RAND_METHODS:
            raise ValueError(
                f"method must be 'exact' or one of {RAND_METHODS}, "
                f"got {method!r}"
            )
        factors = None
        if entry == "hooi":
            factors = init if isinstance(init, (list, tuple)) else init.factors
            core_dims = tuple(f.shape[1] for f in factors)
        algo = dict(
            method=method, oversample=oversample, power_iters=power_iters
        )
        tr = self._tr()
        with tr.span("compile", kind="phase"):
            arr, compiled, from_cache, selection = self._prepare(
                tensor, core_dims, plan, planner, n_procs, dtype,
                storage, memory_budget, spill_codec, algo,
            )
        tr.event(
            "select:storage", mode=selection.mode, codec=selection.codec,
            reason=selection.reason,
        )
        if selection.spilled:
            logger.info("run spills to mmap store: %s", selection.reason)
        self._annotate_root(root, compiled, selection, from_cache)
        backend = self.backend
        mark = backend.mark_stats()
        loop = not skip_hooi and max_iters > 0
        if factors is not None and not loop:
            # hooi(max_iters=0) hands the init back untouched.
            if factors is init:
                raise ValueError(
                    "max_iters must be >= 1 when init is a bare factor list"
                )
            # Nothing was placed, so nothing spilled — report what
            # actually happened, not what the policy would have done.
            never_placed = StorageSelection(
                mode="memory", memory_budget=selection.memory_budget,
                reason="max_iters <= 0: input never placed",
            )
            return self._result(
                compiled, from_cache, mark, never_placed, None,
                decomposition=init, errors=[], sthosvd_error=float("nan"),
            )
        if factors is not None:
            # Reject a misshapen init before the tensor is placed.
            factors = check_factors(factors, compiled.meta, compiled.dtype)
        # Sequential init on the cluster backend: the paper does not
        # charge the initial decomposition, and the HOOI initial grid need
        # not be STHOSVD-feasible (a TTM requires K_n >= q_n). Capacity
        # caveat: this init materializes working copies of the tensor in
        # RAM even on a spilled run — the virtual cluster is a measurement
        # instrument, not a capacity path; only its HOOI phase runs
        # store-backed.
        host_init = (
            entry == "run"
            and method == "exact"
            and isinstance(backend, SimClusterBackend)
        )
        dec, init_error = None, float("nan")
        errors, converged, stopped_reason = [], True, ""
        handle = t_norm_sq = None
        # A chain's outputs can stand in for the tree's only where no
        # program regrids for itself (one address space).
        reuse = _Reuse() if loop and backend.regrid_is_identity else None
        run_store = self._open_store(selection, spill_dir)
        try:
            with self._observed(run_store):
                arr = _cast_for_run(arr, compiled.dtype, run_store)
                if host_init:
                    with tr.span("sthosvd", kind="phase", init="sequential"):
                        dec = host_sthosvd(
                            arr,
                            compiled.meta.core,
                            mode_order=list(compiled.sthosvd_order),
                            dtype=compiled.dtype,
                        )
                        init_error = dec.error_vs(arr)
                if loop or not host_init:
                    # Distribute exactly once for both phases: the input
                    # handle is read-only to every kernel, and re-placing
                    # it would double the spill (or shared-memory) copy
                    # I/O.
                    with tr.span("distribute", kind="phase"):
                        handle = backend.distribute(
                            arr, compiled.initial_grid, store=run_store
                        )
                if factors is None and not host_init:
                    # A randomized init runs through the backend on EVERY
                    # backend — on simcluster that is the point: the
                    # ledger charges the sketches' reduced volumes instead
                    # of the exact path's Gram traffic.
                    dec, init_error, t_norm_sq = self._init_pass(
                        compiled, handle, algo, seed, reuse
                    )
                if loop:
                    dec, errors, converged, stopped_reason = self._hooi_loop(
                        handle, factors if factors is not None else dec.factors,
                        compiled, max_iters, tol, t_norm_sq, reuse,
                    )
        finally:
            if reuse:
                # early stop, max_iters or a raising kernel alike
                reuse.slots.clear()
            if run_store is not None:
                root.set(resident_peak=float(run_store.gauge.peak))
                run_store.close()
        return self._result(
            compiled, from_cache, mark, selection, run_store,
            decomposition=dec, sthosvd_error=init_error, errors=errors,
            method=method, converged=converged, stopped_reason=stopped_reason,
            flops_reused=float(reuse.flops) if reuse else 0.0,
        )

    def run_many(
        self,
        inputs: Iterable,
        core_dims: Sequence[int] | Callable | None = None,
        *,
        planner: str | Planner = "portfolio",
        n_procs: int | None = None,
        dtype=None,
        max_iters: int = 10,
        tol: float = 1e-8,
        skip_hooi: bool = False,
        method: str = "exact",
        oversample: int = 5,
        power_iters: int = 0,
        seed: int = 0,
        max_in_flight: int = 1,
        on_error: str = "raise",
        storage: str | None = None,
        memory_budget: int | str | None = None,
        spill_dir: str | None = None,
        spill_codec: str | None = None,
        prefetch: bool = True,
    ) -> BatchResult:
        """Decompose a stream of tensors through one warm session.

        ``inputs`` is any iterable — a list, a generator, a lazily read
        manifest — of in-memory ndarrays and/or ``.npy`` paths
        (``str``/``os.PathLike``); path items are opened as lazy
        memory mappings at most ``max_in_flight`` ahead of execution, so
        an arbitrarily long stream never materializes more than the
        executing item (and, spilled, never even that — see below).
        ``core_dims`` is one core shape applied to every item, or a
        callable ``shape -> core`` for heterogeneous streams.

        ``storage`` / ``memory_budget`` / ``spill_dir`` apply the
        session's storage policy per item: with a budget set, any item
        whose bytes exceed it streams through memory-mapped spill blocks
        (its ``result.storage`` reports ``"mmap"``) while smaller items
        stay resident — a mixed stream gets per-item out-of-core
        treatment exactly like it gets per-item backend selection.

        Each distinct ``(shape, core, dtype)`` compiles its plan exactly
        once (the session's LRU plan cache); within the in-flight window
        items sharing a plan key execute consecutively, so a mixed stream
        does not thrash backend selection. Worker pools stay warm across
        the whole batch: the session's backend (and, under
        ``backend="auto"``, every per-selection cached instance) is
        *never* torn down between items — auto mode re-selects per item
        from its metadata, reusing already-built pools at zero startup
        charge.

        ``prefetch`` (default on) double-buffers file-backed items: while
        item *i* computes, a background thread touches one element per
        page of item *i+1*'s memory mapping, so its pages are faulted in
        from disk by the time execution reaches it. In-memory items are
        skipped (nothing to fault); ``prefetch=False`` restores strictly
        serial I/O. Warmed bytes land in the session metrics as the
        ``prefetch_bytes`` / ``prefetch_items`` counters.

        ``on_error="raise"`` (default) propagates the first failure;
        ``"skip"`` records it as a :class:`BatchFailure` and keeps
        streaming. Per-item results, the merged per-run ledger and
        throughput counters come back as a :class:`BatchResult`.
        """
        if core_dims is None:
            raise ValueError(
                "core_dims is required: one tuple for every item, or a "
                "callable shape -> core for heterogeneous streams"
            )
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        max_in_flight = check_positive_int(max_in_flight, "max_in_flight")
        if dtype is not None:
            resolve_dtype(np.float64, dtype)  # fail fast on a bad knob
        _check_storage_knobs(
            storage if storage is not None else self._storage,
            memory_budget, spill_codec,
        )
        info = self.cache_info()
        hits0, misses0 = info["hits"], info["misses"]
        self._run_lock.acquire()  # whole-batch scope: tmark..drain is positional
        tmark = self.tracer.mark()
        item_traces: list[Trace] = []
        stream = iter(inputs)
        window: deque[_PendingItem] = deque()
        items: list[BatchItem] = []
        failures: list[BatchFailure] = []
        ledger = StatsLedger()
        # Warm chunks sized to the (possibly overridden) budget geometry,
        # never larger than the run stores this batch will open.
        prefetcher = (
            Prefetcher(chunk_bytes=self.prefetch_chunk_bytes(memory_budget))
            if prefetch
            else None
        )
        seq = 0
        index = 0
        exhausted = False

        def fill() -> None:
            """Top the window up to ``max_in_flight`` materialized items."""
            nonlocal index, exhausted
            while not exhausted and len(window) < max_in_flight:
                try:
                    raw = next(stream)
                except StopIteration:
                    exhausted = True
                    return
                try:
                    window.append(
                        _materialize_item(raw, index, core_dims, dtype)
                    )
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    failures.append(
                        BatchFailure(
                            index=index,
                            source=_item_source(raw, index),
                            error=str(exc),
                            kind=type(exc).__name__,
                        )
                    )
                index += 1

        try:
            with self.tracer.span("batch", kind="phase", method="batch") as root:
                fill()
                while window:
                    # Drain the oldest item's plan-key group first:
                    # streaming order overall, grouped execution within
                    # the window.
                    key = window[0].group_key
                    group = [
                        entry for entry in window if entry.group_key == key
                    ]
                    for entry in group:
                        window.remove(entry)
                    # Top the window back up *before* executing: the
                    # prefetcher needs the next item materialized while
                    # this group computes, not after.
                    fill()
                    for pos, entry in enumerate(group):
                        if prefetcher is not None:
                            nxt = (
                                group[pos + 1]
                                if pos + 1 < len(group)
                                else (window[0] if window else None)
                            )
                            if nxt is not None:
                                prefetcher.schedule(nxt.array)
                        try:
                            result = self.run(
                                entry.array,
                                entry.core,
                                planner=planner,
                                n_procs=n_procs,
                                dtype=dtype,
                                max_iters=max_iters,
                                tol=tol,
                                skip_hooi=skip_hooi,
                                method=method,
                                oversample=oversample,
                                power_iters=power_iters,
                                seed=seed,
                                storage=storage,
                                memory_budget=memory_budget,
                                spill_dir=spill_dir,
                                spill_codec=spill_codec,
                            )
                        except Exception as exc:
                            if on_error == "raise":
                                raise
                            failures.append(
                                BatchFailure(
                                    index=entry.index,
                                    source=entry.source,
                                    error=str(exc),
                                    kind=type(exc).__name__,
                                )
                            )
                            # The failed run stashed its spans; fold
                            # them into the batch timeline so a skipped
                            # item still shows up in the trace.
                            if self.last_error_trace is not None:
                                item_traces.append(self.last_error_trace)
                                self.last_error_trace = None
                            continue
                        finally:
                            entry.array = None  # released before next load
                        if result.trace is not None:
                            item_traces.append(result.trace)
                        items.append(
                            BatchItem(
                                index=entry.index,
                                source=entry.source,
                                seq=seq,
                                seconds=result.seconds,
                                result=result,
                            )
                        )
                        seq += 1
                        if result.ledger is not None:
                            ledger.merge(result.ledger)
                # Join the loader before the metrics snapshot below so
                # the warmed totals it reports are final.
                if prefetcher is not None:
                    prefetcher.close()
                    self.metrics.counter("prefetch_bytes").inc(
                        prefetcher.bytes_warmed
                    )
                    self.metrics.counter("prefetch_items").inc(
                        prefetcher.items_warmed
                    )
                root.set(items=len(items), failures=len(failures))
        except BaseException:
            try:
                tail = self.tracer.drain(tmark)
                if self._trace_enabled:
                    pieces = [tail] + item_traces
                    if self.last_error_trace is not None:
                        pieces.append(self.last_error_trace)
                    self.last_error_trace = Trace.merge(pieces)
            finally:
                self._run_lock.release()
            raise
        finally:
            if prefetcher is not None:
                prefetcher.close()
        try:
            items.sort(key=lambda item: item.index)
            failures.sort(key=lambda failure: failure.index)
            info = self.cache_info()
            self.metrics.counter("batches").inc()
            trace = None
            tail = self.tracer.drain(tmark)
            if self._trace_enabled:
                # Batch root first so its meta wins the first-wins merge.
                tail.meta.update(dict(root.attrs))
                tail.meta["method"] = "batch"
                trace = Trace.merge([tail] + item_traces)
                trace.meta["metrics"] = self.metrics.snapshot()
        finally:
            self._run_lock.release()
        return BatchResult(
            items=items,
            failures=failures,
            seconds=root.seconds,
            ledger=ledger,
            plans_compiled=info["misses"] - misses0,
            cache_hits=info["hits"] - hits0,
            trace=trace,
        )
