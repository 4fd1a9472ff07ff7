"""The block-kernel core: one way to cut, map and reduce, for every backend.

The paper's execution layer is two kernels (the TTM and the Gram+EVD
"SVD" step) replayed along a planned tree; the randomized methods add a
sketch, a cross-Gram and the norm. Their arithmetic lives in the leaf
module :mod:`repro.tensor.kernels`, which the virtual cluster runs on
its bricks too. The shared-memory backends all run those kernels the
same way — cut the tensor along one free mode, compute one partial
per block, combine in ascending block order — and differ only in where
the blocks live and who runs them. This module holds that
common part, in three layers:

* :data:`KERNELS`: kernel name -> the leaf's ``block(s) -> partial``
  function, the table every block task dispatches through;
* :class:`BlockSource`: a picklable description of a tensor's backing —
  a live ndarray, a named ``shared_memory`` segment, or a file
  (``path, offset, shape, dtype``: a raw spill block, a decoded ``.dec``
  scratch file, an external ``.npy``; mapped read-only as a source,
  written by position as a sink) — that :func:`run_block`, the one task
  entry every map executes, opens, cuts and releases;
* **drivers** (:func:`run_ttm`, :func:`run_gram`, :func:`run_cross_gram`,
  :func:`run_sketch`, :func:`run_norm_sq`): pick the split mode and the
  block geometry from :mod:`~repro.backends.blockpar`, hand the block
  tasks to whatever ``map`` the backend supplies, and reduce.

A backend is then configuration: how its handles become sources, which
map runs the tasks (:func:`serial_map`, a thread pool's ``map``, a
process pool's submit/collect) and how many workers the geometry is cut
for. To add a backend, supply a source and a map.

Residency: a source built from a :class:`~repro.storage.StoredTensor`
is its file, and it knows its store: every block taken from it
in-process is leased from the store's gauge at ``OC_LEASE_FACTOR`` x its
bytes: the copy a mapped block is read into, the Gram's unfolding of it,
and the output slab. Each block maps the file read-only for itself and
drops the mapping with the block, so a pass never holds the whole file
mapped. One fault maps a whole page-cache folio, though (2 MiB on ext4
for a file written in large pieces), so a block cut behind mode 0 maps
most of its enclosing byte range: a stored tensor is cut along the
outermost mode whose one-unit slab fits a block (:func:`_cut`). A TTM
multiplies its block where it lies, mapped or not (``ttm`` copies a
block only when it is cut behind the mode). Into an ndarray or shm sink
it writes its slice in place (``out=``). Into a file sink — a spill
block, by ``path`` and ``offset`` — it writes one C-ordered buffer
shaped like the block, with positioned writes
(:func:`~repro.storage.write_runs`), one per contiguous run of the file.
No sink is ever opened as a writable mapping: writing through a fresh
shared mapping costs several times a positioned write, in dirty-page
faults rather than disk traffic. The store does not travel with a
pickled source, so blocks run by worker processes cannot charge the
gauge; their parent charges the worst case instead
(:func:`block_bytes`). A file sink is a spill file, which is scratch: no
block is synced to disk, and the parent reads what the workers wrote
through the page cache.

Determinism: every map returns partials in task (ascending block) order
and every reduction adds them in that order, so equal worker counts give
bit-identical results on every map, and all of them agree with the
sequential in-memory reference to the conformance harness's 1e-10.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.blockpar import (
    OC_LEASE_FACTOR,
    block_slices,
    check_worker_count,
    oc_block_slices,
    reduce_partials,
    split_mode,
)
from repro.storage import MmapStore, StorageError, StoredTensor, write_runs
from repro.tensor.kernels import (
    gram_block,
    norm_block,
    sketch_block,
    ttm_block,
    xgram_block,
)
from repro.tensor.ttm import ttm_out

try:  # gated: some platforms build Python without shared memory
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - absent only on exotic builds
    shared_memory = None


#: kernel name -> block function. The name doubles as the ``worker:<name>``
#: span label; :func:`run_block` looks the function up here on every task.
KERNELS = {
    "ttm": ttm_block,
    "gram": gram_block,
    "xgram": xgram_block,
    "sketch": sketch_block,
    "norm": norm_block,
}


# --------------------------------------------------------------------- #
# (b) block sources
# --------------------------------------------------------------------- #


class BlockSource:
    """Where a tensor's blocks live: ndarray, shm segment or mapped file.

    Exactly one of ``array`` (a live view in this process), ``shm`` (a
    segment name) and ``path`` (with ``offset``) is set. A ``path``
    source is mapped read-only; as a sink it takes positioned writes.
    ``store`` is the :class:`~repro.storage.MmapStore` of a stored
    tensor: it bounds the block size and owns the gauge in-process
    blocks are leased from. Pickling keeps the description and drops
    ``store``.
    """

    __slots__ = ("shape", "dtype", "array", "shm", "path", "offset", "store")

    def __init__(
        self,
        shape,
        dtype,
        *,
        array: np.ndarray | None = None,
        shm: str | None = None,
        path: str | None = None,
        offset: int = 0,
        store: MmapStore | None = None,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.array = array
        self.shm = shm
        self.path = path
        self.offset = int(offset)
        self.store = store

    def __reduce__(self):
        # the live view and the store stay behind
        return _descriptor, (
            self.shape, self.dtype.str, self.shm, self.path, self.offset
        )

    @classmethod
    def of(cls, handle, *, write: bool = False) -> "BlockSource":
        """The in-process source of an ndarray or a stored handle.

        A stored source is its file (:meth:`StoredTensor.mappable`, the
        descriptor procpool ships): every block maps its own region and
        drops it with the block, so no pass over the tensor leaves the
        whole file mapped. Only a zero-byte tensor, which has no file
        to map, is opened here. A stored sink (``write=True``) is its
        file, written by path: only an owned raw block takes writes, so
        an external file (the caller's ``.npy``) raises
        :class:`~repro.storage.StorageError`.
        """
        if not isinstance(handle, StoredTensor):
            return cls(handle.shape, handle.dtype, array=handle)
        if not write:
            mapped = handle.mappable() if handle.nbytes else None
            if mapped is None:
                return cls(
                    handle.shape, handle.dtype, array=handle.open(),
                    store=handle.store,
                )
            return cls(
                handle.shape, handle.dtype, path=mapped[0],
                offset=mapped[1], store=handle.store,
            )
        if not handle.owned or handle.path is None:
            raise StorageError(
                "cannot write into an external or encoded StoredTensor"
            )
        return cls(
            handle.shape, handle.dtype, path=handle.path,
            offset=handle.offset, store=handle.store,
        )

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def flat(self) -> "BlockSource":
        """The same backing as one flat axis (what the norm is cut along)."""
        return BlockSource(
            (self.size,),
            self.dtype,
            array=None if self.array is None else self.array.reshape(-1),
            shm=self.shm,
            path=self.path,
            offset=self.offset,
            store=self.store,
        )

    def open(self):
        """``(view, segment)``: the whole tensor, and what to release after.

        ``segment`` is the shm attachment of a by-name source (``None``
        otherwise); the caller drops ``view`` and then closes it. Python
        < 3.13 registers *attached* segments with the resource tracker as
        if the worker owned them; pool workers inherit the parent's
        tracker, so the duplicate register is an idempotent set-add that
        the parent's ``unlink`` cleanly retires — no compensation needed.
        """
        if self.array is not None:
            return self.array, None
        if self.shm is not None:
            segment = shared_memory.SharedMemory(name=self.shm)
            view = np.ndarray(self.shape, dtype=self.dtype, buffer=segment.buf)
            return view, segment
        view = np.memmap(
            self.path, dtype=self.dtype, mode="r",
            offset=self.offset, shape=self.shape,
        )
        return view, None

    def write_block(self, buffer: np.ndarray, split, lo: int) -> None:
        """Write the C-ordered ``buffer`` as the block at ``lo`` along
        ``split`` of this file sink, by positioned writes.

        The block is one contiguous run of the file when it is the whole
        tensor or cut along mode 0, and ``prod(shape[:split])`` runs —
        one per index of the modes before the cut — otherwise.
        """
        if buffer.size == 0:
            return
        if split is None:
            runs = [(self.offset, buffer)]
        else:
            outer = math.prod(self.shape[:split])
            stride = math.prod(self.shape[split + 1:]) * self.dtype.itemsize
            rows = buffer.reshape(outer, -1)
            runs = (
                (self.offset + (r * self.shape[split] + lo) * stride, row)
                for r, row in enumerate(rows)
            )
        write_runs(self.path, runs)


def _descriptor(shape, dtype, shm, path, offset) -> BlockSource:
    return BlockSource(shape, dtype, shm=shm, path=path, offset=offset)


def block_bytes(sources, split: int | None, lo: int, hi: int) -> int:
    """Bytes of the block ``[lo, hi)`` of ``split``, over all ``sources``."""
    if split is None:
        return sum(s.nbytes for s in sources)
    return sum(
        (hi - lo) * max(1, s.nbytes // max(1, s.shape[split]))
        for s in sources
    )


def run_block(kernel: str, sources, sink, args, split, lo: int, hi: int):
    """The one block task: open, cut, compute into the sink or return,
    release.

    Every map executes this — inline, on a pool thread, or unpickled in a
    worker process — so it is also the one place blocks are leased:
    sources that still know their store (in-process) charge its gauge.
    """
    store = sources[0].store
    if store is None:
        return _compute(kernel, sources, sink, args, split, lo, hi)
    nbytes = OC_LEASE_FACTOR * block_bytes(sources, split, lo, hi)
    with store.gauge.lease(nbytes):
        return _compute(kernel, sources, sink, args, split, lo, hi)


def _compute(kernel, sources, sink, args, split, lo, hi):
    index = (
        Ellipsis if split is None
        else (slice(None),) * split + (slice(lo, hi),)
    )
    opened = [source.open() for source in sources]
    if sink is not None and sink.path is None:
        opened.append(sink.open())
    try:
        if sink is None:
            # a reducing kernel reads a mapped block into memory once,
            # here (its Gram unfolds it); ndarray and shm blocks stay views
            blocks = [
                np.ascontiguousarray(view[index])
                if isinstance(view, np.memmap) else view[index]
                for view, _ in opened
            ]
            return KERNELS[kernel](*blocks, *args)
        # the TTM multiplies every block where it lies, mapped or not
        blocks = [view[index] for view, _ in opened[: len(sources)]]
        if sink.path is not None:
            shape = list(sink.shape)
            if split is not None:
                shape[split] = hi - lo
            buffer = np.empty(shape, dtype=sink.dtype)
            KERNELS[kernel](*blocks, *args, out=buffer)
            sink.write_block(buffer, split, lo)
        else:
            # the kernel writes its block of the sink itself
            KERNELS[kernel](*blocks, *args, out=opened[-1][0][index])
        del blocks
        return None
    finally:
        segments = [segment for _, segment in opened if segment is not None]
        del opened  # views die before their segments close
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view not yet collected
                pass


# --------------------------------------------------------------------- #
# (c) drivers: geometry, map, ascending reduction
# --------------------------------------------------------------------- #


def serial_map(tasks) -> list:
    """One block at a time, in this thread."""
    return [run_block(*task) for task in tasks]


def _cut(source: BlockSource, avoid: int | None, n_workers: int):
    """``(split, [(lo, hi), ...])``; one whole-tensor span when unsplit.

    A resident source is cut along its longest mode other than ``avoid``.
    A stored one is cut along the outermost such mode whose one-unit
    slab fits the store's per-block bytes, and along the longest only
    when none fits: the further out the cut, the fewer and longer the
    file runs a block spans, both the positioned writes of a file sink
    and the pages a mapped block touches.
    """
    split = split_mode(source.shape, avoid)
    if split is None:
        return None, [(0, 0)]
    if source.store is None:
        slices = block_slices(source.shape[split], n_workers)
    else:
        per_block = source.store.per_block_bytes(n_workers)
        unit = source.size * source.dtype.itemsize
        split = next(
            (
                m for m, length in enumerate(source.shape)
                if m != avoid and length > 1 and unit // length <= per_block
            ),
            split,
        )
        slices = oc_block_slices(
            source.shape, split, source.dtype.itemsize, per_block, n_workers,
        )
    return split, [(sl.start, sl.stop) for sl in slices]


def run_ttm(source, sink, matrix, mode: int, n_workers: int, map) -> None:
    """``Z = X x_mode matrix``: blocks write disjoint slices of ``sink``."""
    split, spans = _cut(source, mode, n_workers)
    map([
        ("ttm", (source,), sink, (matrix, mode), split, lo, hi)
        for lo, hi in spans
    ])


def ttm_in_process(handle, matrix, mode: int, n_workers: int, map):
    """TTM of an ndarray or stored handle into a new handle of its kind."""
    matrix = np.asarray(matrix)
    shape, dtype = ttm_out(handle.shape, handle.dtype, matrix, mode)
    stored = isinstance(handle, StoredTensor)
    if stored:
        out = StoredTensor.allocate(handle.store, shape, dtype)
    else:
        out = np.empty(shape, dtype=dtype)
    try:
        run_ttm(
            BlockSource.of(handle), BlockSource.of(out, write=True),
            matrix, mode, n_workers, map,
        )
    except BaseException:
        if stored:
            out.close()  # a failed write leaves no block behind
        raise
    return out


def run_gram(source, mode: int, n_workers: int, map, out=None) -> np.ndarray:
    """The mode Gram matrix ``U U^T``, partials summed in block order."""
    split, spans = _cut(source, mode, n_workers)
    partials = map(
        [("gram", (source,), None, (mode,), split, lo, hi) for lo, hi in spans]
    )
    if split is None:
        return partials[0]
    return reduce_partials(partials, out)


def run_cross_gram(a, b, mode: int, n_workers: int, map) -> np.ndarray:
    """``unfold(A) @ unfold(B).T``: both cut along the same free axis, so
    each block pair sees identical column sets and block products add."""
    split, spans = _cut(a, mode, n_workers)
    partials = map(
        [("xgram", (a, b), None, (mode,), split, lo, hi) for lo, hi in spans]
    )
    if split is None:
        return partials[0]
    return reduce_partials(partials)


def run_sketch(source, specs, n_workers: int, map):
    """All sketches plus the squared norm in one pass over the blocks."""
    dims = source.shape
    split, spans = _cut(source, None, n_workers)
    results = map([
        (
            "sketch", (source,), None,
            (specs, dims, tuple(
                (lo, hi) if m == split else (0, d) for m, d in enumerate(dims)
            )),
            split, lo, hi,
        )
        for lo, hi in spans
    ])
    if split is None:
        return results[0]
    outs = [np.zeros_like(contrib) for contrib in results[0][0]]
    norm_sq = 0.0
    for contribs, part in results:  # ascending block order
        for out, contrib in zip(outs, contribs):
            out += contrib
        norm_sq += part
    return outs, float(norm_sq)


def run_norm_sq(source, n_workers: int, map) -> float:
    """Squared Frobenius norm over flat chunks, summed in chunk order."""
    flat = source.flat()
    split, spans = _cut(flat, None, n_workers)
    return float(sum(map(
        [("norm", (flat,), None, (), split, lo, hi) for lo, hi in spans]
    )))


# --------------------------------------------------------------------- #
# what the backends share besides the kernels
# --------------------------------------------------------------------- #


def oc_distribute(tensor: np.ndarray, store: MmapStore) -> StoredTensor:
    """Place a tensor into the store without materializing it.

    An already memory-mapped C-contiguous input (a lazily opened ``.npy``)
    is wrapped in place — zero copy, zero spill bytes; anything else is
    written through in store-chunked slabs.
    """
    if (
        isinstance(tensor, np.memmap)
        and tensor.filename is not None
        and tensor.flags["C_CONTIGUOUS"]
    ):
        try:
            return StoredTensor.external(store, tensor)
        except ValueError:
            pass  # unlocatable backing region: spill a copy instead
    return StoredTensor.spill(store, np.asarray(tensor))


#: Gram scratch arrays a backend keeps before it starts over. Reuse pays
#: within a run and across same-shape items, a handful of mode lengths;
#: only a long-lived backend fed ever new shapes gets this far.
GRAM_SCRATCH_SLOTS = 64


class BlockBackend(ExecutionBackend):
    """One address space: identity regrid, one compute record per kernel.

    The backend owns the ``L x L`` scratch its Grams accumulate into: it
    is the one object that writes it. Like the ledger's run scoping, this
    has an instance serve one run at a time (the session's run lock sees
    to it); concurrent runs take a backend each.
    """

    regrid_is_identity = True

    def __init__(self) -> None:
        super().__init__()
        self._gram_scratch: dict[tuple[int, np.dtype], np.ndarray] = {}

    def _gram_out(self, handle, mode: int) -> np.ndarray:
        """The scratch for ``handle``'s mode Gram: allocated on first use
        per ``(length, dtype)``, reused by every later call (a fresh array
        per call measured +3.8 % on a 256^3 sequential run), dropped on
        :meth:`close`."""
        length, dtype = handle.shape[mode], np.dtype(handle.dtype)
        out = self._gram_scratch.get((length, dtype))
        if out is None:
            if len(self._gram_scratch) >= GRAM_SCRATCH_SLOTS:
                self._gram_scratch.clear()
            out = self._gram_scratch[length, dtype] = np.empty(
                (length, length), dtype=dtype
            )
        return out

    def close(self) -> None:
        """Free the Gram scratch; the backend stays usable."""
        self._gram_scratch.clear()

    def shape(self, handle) -> tuple[int, ...]:
        return tuple(handle.shape)

    def regrid(self, handle, grid, *, tag="regrid"):
        return handle

    def _record(self, op: str, tag: str, flops, start: float) -> None:
        """Ledger record of one kernel call timed from ``start``."""
        self.ledger.add_compute(
            op=op, tag=tag, flops=float(flops),
            seconds=perf_counter() - start,
        )


class PoolBackend(BlockBackend):
    """A backend over a lazily started pool of ``n_workers``.

    ``n_workers`` defaults to ``min(8, cpu_count - 1)`` and is also the
    processor count plans default to, so planning granularity matches
    execution granularity. Subclasses supply :meth:`_start_pool`.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        super().__init__()
        self._pool = None  # before any raise
        self.n_workers = check_worker_count(n_workers, self.name)

    @property
    def default_procs(self) -> int:
        return self.n_workers

    def _start_pool(self):
        raise NotImplementedError

    def _executor(self):
        if self._pool is None:
            self._pool = self._start_pool()
        return self._pool

    def close(self) -> None:
        """Shut the pool down; the backend stays usable (pool reopens)."""
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        if self._pool is not None:
            self._pool.shutdown(wait=False)


__all__ = [
    "KERNELS",
    "BlockBackend",
    "BlockSource",
    "PoolBackend",
    "block_bytes",
    "oc_distribute",
    "run_block",
    "run_cross_gram",
    "run_gram",
    "run_norm_sq",
    "run_sketch",
    "run_ttm",
    "serial_map",
    "ttm_in_process",
    "ttm_out",
]
