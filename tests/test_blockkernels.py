"""The block-kernel core, kernel by kernel.

``repro.backends.blockkernels`` promises that a kernel's result depends
on the block geometry only — not on where the blocks live or on which
map ran them. Held here directly, below the backends:

* every kernel x every source (ndarray, shm segment, raw spill file,
  zlib block decoded to scratch) gives ``array_equal`` results on the
  serial, thread and process maps at one worker count, and agrees with
  the sequential in-memory reference to a tolerance fixed from the dtype;
* the TTM, which writes each block straight into its slice of the sink,
  does so for every block the geometry can cut — in front of the mode
  (a view) and behind it (one copy of that block) — on every sink, and
  allocates nothing tensor-sized while it does;
* the task message survives a ``spawn`` pool, where nothing is inherited
  and everything a worker needs must arrive pickled.
"""

import gc
import multiprocessing
import os
import sys

import numpy as np
import pytest

import repro.backends.procpool as procpool_mod
from repro.backends.blockkernels import (
    KERNELS,
    BlockSource,
    _cut,
    run_block,
    run_cross_gram,
    run_gram,
    run_norm_sq,
    run_sketch,
    run_ttm,
    serial_map,
    ttm_out,
)
from repro.backends.procpool import ProcessPoolBackend, ShmTensor
from repro.backends.sequential import SequentialBackend
from repro.backends.sketch import single_pass_specs
from repro.backends.threaded import ThreadedBackend
from repro.storage import MmapStore, StoredTensor, resident_gauge
from repro.tensor.unfold import unfold
from test_tensor_ttm import KIB, einsum_ttm, traced_peak  # one reference

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not os.path.isdir("/dev/shm"),
    reason="the shm source and the process map need Linux /dev/shm",
)

SOURCES = ("ndarray", "shm", "file", "zlib")

#: (dims, dtype, mode, n_workers): a plain case, float32, a dim-1 mode,
#: and more workers than the split axis is long
CASES = {
    "f64": ((12, 10, 8), np.float64, 1, 3),
    "f32": ((12, 10, 8), np.float32, 0, 3),
    "dim1": ((9, 1, 7), np.float64, 1, 3),
    "short": ((3, 2, 2), np.float64, 0, 5),
}

#: agreement with the whole-tensor reference, relative to its largest
#: entry: blocked sums reassociate, so the bound follows the dtype
RTOL = {np.float64: 1e-10, np.float32: 1e-4}


@pytest.fixture(scope="module")
def maps():
    """``maps(n_workers)`` -> the three maps, pools shared by the module."""
    pools = {}

    def get(n_workers):
        if n_workers not in pools:
            pools[n_workers] = (
                ThreadedBackend(n_workers), ProcessPoolBackend(n_workers)
            )
        threads, procs = pools[n_workers]
        return {
            "serial": serial_map, "threads": threads._map,
            "processes": procs._map,
        }

    yield get
    for threads, procs in pools.values():
        threads.close()
        procs.close()


class Placed:
    """One array placed in one kind of backing, and sinks of that kind."""

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self.keep = []  # handles own their segments and blocks
        self.store = None
        if kind in ("file", "zlib"):
            # 1 KiB blocks: the store, not the worker count, sets the cut
            self.store = MmapStore(
                root=str(tmp_path), max_block_bytes=1024,
                codec="zlib" if kind == "zlib" else "raw",
            )

    def source(self, array) -> BlockSource:
        if self.kind == "ndarray":
            return BlockSource.of(array)
        if self.kind == "shm":
            handle = ShmTensor(array.shape, array.dtype)
            handle.array[...] = array
            self.keep.append(handle)
            return BlockSource(array.shape, array.dtype, shm=handle.name)
        handle = StoredTensor.spill(self.store, array)
        self.keep.append(handle)
        path, offset = handle.mappable()
        assert path.endswith(".dec" if self.kind == "zlib" else ".blk")
        return BlockSource(
            array.shape, array.dtype, path=path, offset=offset,
            store=self.store,
        )

    def sink(self, shape, dtype):
        """``(sink, read)``: where TTM blocks land, and how to read it."""
        if self.kind == "ndarray":
            out = np.empty(shape, dtype=dtype)
            return BlockSource.of(out), lambda: out
        if self.kind == "shm":
            handle = ShmTensor(shape, dtype)
            self.keep.append(handle)
            sink = BlockSource(shape, dtype, shm=handle.name)
            return sink, lambda: handle.array.copy()
        handle = StoredTensor.allocate(self.store, shape, dtype)
        self.keep.append(handle)
        sink = BlockSource(shape, dtype, path=handle.path, store=self.store)
        return sink, lambda: np.array(handle.open())

    def close(self):
        for handle in self.keep:
            handle.close()
        if self.store is not None:
            self.store.close()


def flatten(result) -> np.ndarray:
    """Any kernel's result as one vector (sketches: all of them + norm)."""
    if isinstance(result, tuple):
        sketches, norm_sq = result
        return np.concatenate([s.ravel() for s in sketches] + [[norm_sq]])
    return np.atleast_1d(np.asarray(result)).ravel()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_is_bitwise_equal_across_maps(
    kernel, source, case, maps, tmp_path
):
    dims, dtype, mode, n_workers = CASES[case]
    rng = np.random.default_rng(11)
    x = rng.standard_normal(dims).astype(dtype)
    matrix = rng.standard_normal((2, dims[mode])).astype(dtype)
    other = SequentialBackend().ttm(x, matrix, mode)
    core = tuple(min(2, d) for d in dims)
    specs = single_pass_specs(np.random.default_rng(5), dims, core, 1, dtype)

    ref = SequentialBackend()
    reference = {
        "ttm": lambda: other,
        "gram": lambda: unfold(x, mode) @ unfold(x, mode).T,
        "xgram": lambda: ref.cross_gram(x, other, mode),
        "sketch": lambda: ref.sketch(x, specs),
        "norm": lambda: ref.fro_norm_sq(x),
    }[kernel]()

    placed = Placed(source, tmp_path)
    gauge = resident_gauge()
    try:
        a = placed.source(x)

        def run(map):
            if kernel == "ttm":
                sink, read = placed.sink(*ttm_out(dims, dtype, matrix, mode))
                run_ttm(a, sink, matrix, mode, n_workers, map)
                return read()
            if kernel == "gram":
                return run_gram(a, mode, n_workers, map)
            if kernel == "xgram":
                b = placed.source(other)
                return run_cross_gram(a, b, mode, n_workers, map)
            if kernel == "sketch":
                return run_sketch(a, specs, n_workers, map)
            return run_norm_sq(a, n_workers, map)

        results = {
            name: flatten(run(map))
            for name, map in maps(n_workers).items()
            # a live ndarray cannot be reached from another process:
            # that is what the shm source is for
            if not (source == "ndarray" and name == "processes")
        }
    finally:
        placed.close()
    for name, got in results.items():
        assert got.dtype == flatten(reference).dtype, name
        np.testing.assert_array_equal(got, results["serial"], err_msg=name)
    want = flatten(reference)
    np.testing.assert_allclose(
        results["serial"], want, rtol=0,
        atol=RTOL[dtype] * max(1.0, float(np.abs(want).max())),
    )
    # every lease was returned, whoever took it
    assert gauge.current == 0
    assert list(tmp_path.iterdir()) == []


#: TTM geometries: descending dims are cut in front of the mode (every
#: block a view), rising dims behind it (every block copied once)
TTM_SHAPES = {
    "3d": ((12, 10, 8), np.float64),
    "3d-rising": ((6, 8, 10), np.float32),
    "4d": ((9, 8, 6, 5), np.float64),
    "4d-rising": ((4, 5, 6, 7), np.float64),
}


@pytest.mark.parametrize("n_workers", (1, 2, 3))
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("shape", sorted(TTM_SHAPES))
def test_ttm_writes_every_block_into_every_sink(
    shape, source, n_workers, maps, tmp_path
):
    """Every ``(split, lo, hi)`` block ``_cut`` yields, for each mode."""
    dims, dtype = TTM_SHAPES[shape]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(dims).astype(dtype)
    placed = Placed(source, tmp_path)
    try:
        a = placed.source(x)
        for mode in range(len(dims)):
            matrix = rng.standard_normal((3, dims[mode])).astype(dtype)
            want = einsum_ttm(x, matrix, mode)
            results = {}
            for name, map in maps(n_workers).items():
                if source == "ndarray" and name == "processes":
                    continue
                sink, read = placed.sink(*ttm_out(dims, dtype, matrix, mode))
                run_ttm(a, sink, matrix, mode, n_workers, map)
                results[name] = read()
            for name, got in results.items():
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(
                    got, results["serial"], err_msg=f"{name}, mode {mode}"
                )
            np.testing.assert_allclose(
                results["serial"], want, rtol=0,
                atol=RTOL[dtype] * max(1.0, float(np.abs(want).max())),
                err_msg=f"mode {mode}",
            )
    finally:
        placed.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_workers", (1, 2, 3))
@pytest.mark.parametrize("mode", range(4))
def test_ttm_block_task_allocates_no_block_sized_temporary(mode, n_workers):
    """``run_block("ttm")`` multiplies the block where it lies, into the
    sink: nothing is allocated but the last mode's transposed product."""
    dims = (16, 12, 10, 8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dims)
    matrix = rng.standard_normal((2, dims[mode]))
    out = np.empty(ttm_out(dims, x.dtype, matrix, mode)[0])
    source, sink = BlockSource.of(x), BlockSource.of(out)
    split, spans = _cut(source, mode, n_workers)
    # in front of the mode (x[lo:hi]), or x[:, lo:hi] under mode 0
    assert split == (1 if mode == 0 else 0)
    for lo, hi in spans:
        task = ("ttm", (source,), sink, (matrix, mode), split, lo, hi)
        block_in = x.nbytes // dims[split] * (hi - lo)
        spare = out.nbytes // dims[split] * (hi - lo) if mode == 3 else 0
        assert spare + 4 * KIB < block_in // 2  # the bound tells them apart
        assert traced_peak(lambda: run_block(*task)) <= spare + 4 * KIB
    np.testing.assert_allclose(out, einsum_ttm(x, matrix, mode), atol=1e-12)


@pytest.mark.parametrize("mode", range(4))
def test_threaded_ttm_peaks_at_its_output(mode):
    """End to end on the thread pool: the output, a constant per task, and
    for the last mode the blocks' transposed products — never the input
    again (the parent commit unfolded a copy of it in every thread)."""
    dims = (24, 20, 18, 16)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dims)
    matrix = rng.standard_normal((3, dims[mode]))
    per_task = 16 * KIB  # futures, task tuples, thread bookkeeping
    with ThreadedBackend(2) as backend:
        handle = backend.distribute(x, None)
        out_bytes = backend.ttm(handle, matrix, mode).nbytes
        assert 4 * out_bytes < x.nbytes
        peak = traced_peak(lambda: backend.ttm(handle, matrix, mode))
    allowed = out_bytes * (2 if mode == 3 else 1) + 2 * per_task
    assert peak <= allowed


def _spawn_context():
    return multiprocessing.get_context("spawn")


@pytest.mark.parametrize("transport", ["shm", "file"])
def test_task_message_survives_a_spawn_pool(transport, tmp_path, monkeypatch):
    """Under ``spawn`` a worker inherits nothing: the task must carry
    descriptors and small arguments only, never a closure or a view."""
    monkeypatch.setattr(procpool_mod, "_pool_context", _spawn_context)
    x = np.random.default_rng(0).standard_normal((12, 10, 8))
    matrix = np.random.default_rng(1).standard_normal((4, 12))
    specs = single_pass_specs(
        np.random.default_rng(2), x.shape, (3, 3, 2), 1, x.dtype
    )
    ref = SequentialBackend()
    before = set(os.listdir("/dev/shm"))
    store = None
    if transport == "file":
        store = MmapStore(root=str(tmp_path), max_block_bytes=2048)
    with ProcessPoolBackend(n_workers=2) as backend:
        handle = backend.distribute(x, (), store=store)
        out = backend.ttm(handle, matrix, 0)
        np.testing.assert_allclose(
            np.asarray(backend.gather(out)), ref.ttm(x, matrix, 0), atol=1e-10
        )
        np.testing.assert_allclose(
            backend.leading_factor(handle, 1, 3),
            ref.leading_factor(x, 1, 3),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            flatten(backend.sketch(handle, specs)),
            flatten(ref.sketch(x, specs)),
            atol=1e-10,
        )
        pool = backend._pool
        assert pool is not None and pool._mp_context.get_start_method() == (
            "spawn"
        )
        del out, handle
    if store is not None:
        store.close()
    gc.collect()
    assert set(os.listdir("/dev/shm")) - before == set()
    assert list(tmp_path.iterdir()) == []
