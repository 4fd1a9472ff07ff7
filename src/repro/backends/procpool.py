"""Process-pool backend: true multi-core block parallelism.

The first backend that leaves the GIL behind entirely. Handles are
:class:`ShmTensor` instances — tensors living in named
``multiprocessing.shared_memory`` segments — and every kernel is the
shared block kernel of :mod:`repro.backends.blockkernels`, cut over the
exact block geometry the threaded backend uses
(:mod:`repro.backends.blockpar`) and mapped over a pool of worker
*processes*. Every task is one submission of
:func:`~repro.backends.blockkernels.run_block`. Workers attach to the
segments by name, so no tensor ever crosses a pipe: a task message carries
:class:`~repro.backends.blockkernels.BlockSource` descriptions (a segment
name, a shape, a dtype) and a slice — plus the (small) factor matrix for
TTM steps.

Determinism is preserved exactly as in the threaded backend:

* TTM blocks write disjoint slices of a preallocated output segment or
  spill file (no cross-process reduction at all);
* Gram partials and norm partials come back to the parent and are summed
  in ascending block order, the fixed-order discipline shared with the
  virtual cluster.

Because the block geometry and reduction order are *identical* to the
threaded backend's, both produce bit-identical results — and agree with
the sequential reference to the conformance harness's 1e-10.

The parent owns the only :class:`~repro.dist.stats.StatsLedger`; workers
return bare partial results and the parent folds them into single
per-kernel records (wall-clock seconds, the same ops/tags/FLOP formulas
the other shared-memory backends use). Regridding is the identity and no
communication volume is recorded — one address space, honestly accounted.

Out-of-core runs swap the transport: when the handle is a
:class:`~repro.storage.StoredTensor` (a spill block or a lazily opened
``.npy``), workers use the underlying *files* directly — they
``np.memmap`` inputs read-only and write their disjoint runs of an
output block with positioned writes — instead of copying the tensor
through ``shared_memory``. Task messages shrink to
paths plus geometry, and a tensor larger than RAM streams through the
pool one budget-bounded block per worker at a time.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from repro.backends.blockkernels import (
    BlockSource,
    PoolBackend,
    block_bytes,
    oc_distribute,
    run_block,
    run_cross_gram,
    run_gram,
    run_norm_sq,
    run_sketch,
    run_ttm,
    serial_map,
    shared_memory,
    ttm_out,
)
from repro.backends.blockpar import (
    OC_LEASE_FACTOR,
    gram_evd_flops,
    split_mode,
)
from repro.backends.errors import BackendUnavailableError
from repro.storage import CorruptBlockError, StorageError, StoredTensor
from repro.tensor.kernels import sketch_flops
from repro.tensor.linalg import gram_factor


def _pool_context():
    """Fork on Linux (cheap workers, stable even if the default shifts);
    everywhere else the platform default — forking is unsafe where CPython
    itself switched away from it (macOS system frameworks)."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# --------------------------------------------------------------------- #
# shared-memory handles
# --------------------------------------------------------------------- #


def segment_prefix() -> str:
    """The name prefix of every segment this process creates, so
    ``/dev/shm`` entries are attributable to their owner even while other
    processes share the directory."""
    return f"rp{os.getpid()}_"


def _create_segment(nbytes: int):
    """A fresh segment named :func:`segment_prefix` plus a random suffix
    (short enough for the 31-byte limit some platforms put on names)."""
    while True:
        name = segment_prefix() + secrets.token_hex(4)
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=nbytes
            )
        except FileExistsError:  # pragma: no cover - a 32-bit collision
            continue


class ShmTensor:
    """A tensor in a named shared-memory segment (the procpool handle).

    The creating process owns the segment and unlinks it when the handle
    is garbage collected (or when :meth:`close` is called). Workers attach
    by :attr:`name` for the duration of one block task.
    """

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        self._shm = _create_segment(nbytes)
        self._array: np.ndarray | None = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )
        # The finalizer tracks the *view*, not the handle: an ndarray
        # built over a memoryview does not hold a buffer export on it
        # (numpy >= 2), so destroying the segment when the handle dies
        # would unmap memory under a still-referenced gather() view.
        # Tied to the view, the mapping lives exactly as long as anything
        # can read it — and no longer.
        self._finalizer = weakref.finalize(
            self._array, _destroy_segment, self._shm
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def array(self) -> np.ndarray:
        """The parent's live view of the segment."""
        if self._array is None:
            raise ValueError("ShmTensor is closed")
        return self._array

    def close(self) -> None:
        """Release the parent's view and unlink the segment."""
        self._array = None
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShmTensor(name={self.name!r}, shape={self.shape})"


def _destroy_segment(shm) -> None:
    """Finalizer: drop the mapping and the name (best effort)."""
    try:
        shm.close()
    except BufferError:  # a view outlived the handle; name still goes away
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# --------------------------------------------------------------------- #
# the traced-task wrapper (module level: picklable under spawn), and the
# parent's two ways of reaching a handle
# --------------------------------------------------------------------- #


def _run_timed(func, *args):
    """Run one worker task, shipping back a span fragment with the result.

    ``perf_counter`` is CLOCK_MONOTONIC on Linux — shared across
    processes — so the fragment's timestamps land directly on the
    parent's trace timeline. Only used when tracing is enabled; the
    untraced path submits the task function bare.
    """
    t0 = perf_counter()
    value = func(*args)
    return (os.getpid(), t0, perf_counter()), value


def _mappable(handle: StoredTensor):
    """``(path, offset)`` workers can map, or ``None`` for the serial path.

    Codec-encoded blocks decode into a raw scratch file here (parent
    side, chunked and gauge-leased) so the fan-out still ships nothing
    but paths + geometry; a corrupt block surfaces through the usual
    typed errors on the in-process fallback read instead.
    """
    try:
        return handle.mappable()
    except CorruptBlockError:
        raise
    except (OSError, StorageError):
        return None


def _view(handle, *, write: bool = False) -> BlockSource:
    """The parent's own source of a handle (no name or path needed)."""
    if isinstance(handle, ShmTensor):
        handle = handle.array
    return BlockSource.of(handle, write=write)


# --------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------- #


class ProcessPoolBackend(PoolBackend):
    """Block-parallel execution over a pool of ``n_workers`` processes."""

    name = "procpool"

    def __init__(self, n_workers: int | None = None) -> None:
        super().__init__(n_workers)
        if shared_memory is None:  # pragma: no cover - exotic builds only
            raise BackendUnavailableError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform",
                backend=self.name,
            )
        try:  # probe: /dev/shm may be missing or unwritable in sandboxes
            probe = _create_segment(16)
            probe.close()
            probe.unlink()
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot allocate shared memory ({exc})",
                backend=self.name,
                config={"n_workers": self.n_workers},
            ) from exc

    def _start_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_workers, mp_context=_pool_context()
        )

    # -- the process map --------------------------------------------------- #

    def _await_all(self, futures) -> list:
        """Collect fan-out results; on failure leave the backend healthy.

        A worker exception must not poison the backend: pending tasks are
        cancelled and drained first, so no worker is still writing when
        the caller drops the output it was writing (:meth:`ttm` unlinks
        it, so ``/dev/shm`` and the spill directory stay clean). A pool
        whose workers died (:class:`BrokenProcessPool`) is shut down and
        dropped; the next kernel transparently spins up a fresh one.
        """
        try:
            return [f.result() for f in futures]
        except BaseException as exc:
            for f in futures:
                f.cancel()
            wait(futures)
            if isinstance(exc, BrokenProcessPool) and self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            raise

    def _submit(self, func, *args):
        """Submit one worker task, wrapped for span capture when traced."""
        if self.tracer.enabled:
            return self._executor().submit(_run_timed, func, *args)
        return self._executor().submit(func, *args)

    def _collect(self, label: str, futures) -> list:
        """:meth:`_await_all`, unwrapping traced span fragments.

        Each fragment becomes a ``kind="worker"`` span named
        ``worker:{label}`` parented on the currently open span (the
        enclosing kernel's phase). Fragments of a failed fan-out are
        dropped with their results — `_await_all` raises first.
        """
        results = self._await_all(futures)
        if not self.tracer.enabled:
            return results
        out = []
        for (pid, t0, t1), value in results:
            self.tracer.add_span(
                f"worker:{label}", t0, t1, kind="worker", pid=pid
            )
            out.append(value)
        return out

    def _worker_lease(self, tasks):
        """Parent-side lease modeling the workers' concurrent residency.

        Workers are separate processes, so their block copies cannot
        charge the in-process gauge directly; the parent charges the
        worst case — every pool worker holding one leased block at once —
        for the duration of the fan-out. Segment-backed tasks copy
        nothing and lease nothing.
        """
        store = tasks[0][1][0].store
        if store is None:
            return nullcontext()
        biggest = max(
            block_bytes(sources, split, lo, hi)
            for _, sources, _, _, split, lo, hi in tasks
        )
        concurrency = min(len(tasks), self.n_workers)
        return store.gauge.lease(OC_LEASE_FACTOR * biggest * concurrency)

    def _map(self, tasks) -> list:
        """Block tasks over the pool, results in task (ascending) order."""
        with self._worker_lease(tasks):
            futures = [self._submit(run_block, *task) for task in tasks]
            return self._collect(tasks[0][0], futures)

    # -- handles -> sources ------------------------------------------------ #

    def _descriptor(self, handle) -> BlockSource | None:
        """What a worker opens: a segment name, or a path it can map."""
        if isinstance(handle, ShmTensor):
            return BlockSource(handle.shape, handle.dtype, shm=handle.name)
        mapped = _mappable(handle)
        if mapped is None:
            return None
        return BlockSource(
            handle.shape, handle.dtype, path=mapped[0], offset=mapped[1],
            store=handle.store,
        )

    def _sources(self, avoid: int | None, *handles):
        """``(sources, n_workers, map)`` for one kernel over ``handles``.

        A fan-out worth shipping — more than one worker, a mode to split,
        every handle reachable by name or path — gets descriptors and
        the process map. Anything else runs on the parent's own views
        through the serial map, cut for one worker.
        """
        if self.n_workers > 1 and (
            split_mode(handles[0].shape, avoid) is not None
        ):
            sources = [self._descriptor(handle) for handle in handles]
            if all(source is not None for source in sources):
                return sources, self.n_workers, self._map
        return [_view(handle) for handle in handles], 1, serial_map

    # -- data placement -------------------------------------------------- #

    def distribute(self, tensor: np.ndarray, grid, *, store=None):
        if store is not None:
            # Out-of-core placement: a lazily mapped .npy is wrapped in
            # place (workers will map the file directly — no copy through
            # shared_memory at all); anything else spills write-through.
            return oc_distribute(tensor, store)
        tensor = np.asarray(tensor)
        handle = ShmTensor(tensor.shape, tensor.dtype)
        handle.array[...] = tensor
        return handle

    def gather(self, handle) -> np.ndarray:
        if isinstance(handle, StoredTensor):
            return handle.open()
        # The live view, not a copy — the session copies cores it keeps,
        # and the segment finalizer is tied to this very view, so the
        # mapping stays valid for as long as the caller holds it.
        return handle.array

    # -- kernels ---------------------------------------------------------- #

    def ttm(self, handle, matrix: np.ndarray, mode: int, *, tag="ttm"):
        start = perf_counter()
        matrix = np.asarray(matrix)
        (source,), n_workers, map = self._sources(mode, handle)
        shape, dtype = ttm_out(handle.shape, handle.dtype, matrix, mode)
        if isinstance(handle, StoredTensor):
            out = StoredTensor.allocate(handle.store, shape, dtype)
        else:
            out = ShmTensor(shape, dtype)
        sink = (
            _view(out, write=True) if map is serial_map
            else self._descriptor(out)
        )
        try:
            run_ttm(source, sink, matrix, mode, n_workers, map)
        except BaseException:
            out.close()  # a failed TTM leaves no segment or block behind
            raise
        self._record("gemm", tag, matrix.shape[0] * handle.size, start)
        return out

    def leading_factor(
        self, handle, mode: int, k: int, *, tag: str = "svd", init=None
    ) -> np.ndarray:
        start = perf_counter()
        (source,), n_workers, map = self._sources(mode, handle)
        out = self._gram_out(handle, mode)
        g = run_gram(source, mode, n_workers, map, out)
        factor = gram_factor(g, k, init)
        flops = gram_evd_flops(handle.shape[mode], handle.size)
        self._record("syrk", tag, flops, start)
        return factor

    def sketch(self, handle, specs, *, tag="sketch"):
        start = perf_counter()
        specs = list(specs)
        (source,), n_workers, map = self._sources(None, handle)
        sketches, norm_sq = run_sketch(source, specs, n_workers, map)
        flops = sum(sketch_flops(handle.shape, spec) for spec in specs)
        self._record("gemm", tag, float(flops) + float(handle.size), start)
        return sketches, norm_sq

    def cross_gram(self, handle, other, mode: int, *, tag="xgram"):
        start = perf_counter()
        (a, b), n_workers, map = self._sources(mode, handle, other)
        g = run_cross_gram(a, b, mode, n_workers, map)
        flops = float(other.shape[mode]) * float(handle.size)
        self._record("gemm", tag, flops, start)
        return g

    def fro_norm_sq(self, handle, *, tag="norm") -> float:
        (source,), n_workers, map = self._sources(None, handle)
        return run_norm_sq(source, n_workers, map)
