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
* a file sink takes positioned writes, one per contiguous run of the
  file, and every cut lands where it belongs, wherever in its file the
  sink starts and however many threads write it at once;
* a stored tensor is cut along the outermost mode whose one-unit slab
  fits the store's block bytes, so its blocks span few, long file runs;
* the task message survives a ``spawn`` pool, where nothing is inherited
  and everything a worker needs must arrive pickled.
"""

import gc
import math
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
    ttm_in_process,
    ttm_out,
)
from repro.backends.procpool import (
    ProcessPoolBackend,
    ShmTensor,
    segment_prefix,
)
from repro.backends.blockpar import OC_LEASE_FACTOR
from repro.backends.sequential import SequentialBackend
from repro.backends.sketch import single_pass_specs
from repro.backends.threaded import ThreadedBackend
from repro.dist.blocks import block_ranges
from repro.storage import MmapStore, StoredTensor, resident_gauge
from repro.tensor.ttm import ttm
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


#: file-sink geometries: every mode of each is a TTM mode and, where it
#: is not the TTM's, a cut (mode 0: one run per block, a middle or the
#: last mode: one per index of the sink's modes before the cut)
POSITIONED_SHAPES = {"3d": (12, 10, 9), "4d": (7, 6, 5, 8)}


@pytest.mark.parametrize("offset", (0, 4096 + 24), ids=("at0", "mid-file"))
@pytest.mark.parametrize("map_name", ("serial", "threads"))
@pytest.mark.parametrize("shape", sorted(POSITIONED_SHAPES))
def test_ttm_positioned_writes_land_every_run(
    shape, map_name, offset, maps, monkeypatch, tmp_path
):
    dims = POSITIONED_SHAPES[shape]
    ndim = len(dims)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(dims)
    map = maps(2)[map_name]
    calls = []
    pwrite = os.pwrite

    def counting(fd, data, at):
        calls.append(at)
        return pwrite(fd, data, at)

    monkeypatch.setattr(os, "pwrite", counting)
    header = bytes(range(256)) * (offset // 256) + b"\xa5" * (offset % 256)
    path = tmp_path / "sink.bin"
    spill = str(tmp_path / "spill")
    with MmapStore(root=spill, max_block_bytes=1024) as store:
        handle = StoredTensor.spill(store, x)
        source = BlockSource(dims, x.dtype, path=handle.path, store=store)
        for mode in range(ndim):
            matrix = rng.standard_normal((3, dims[mode]))
            want = ttm(x, matrix, mode)
            for split in (None, *range(ndim)):
                if split == mode:
                    continue
                spans = (
                    [(0, 0)] if split is None
                    else block_ranges(dims[split], 3)
                )
                tasks = [
                    ("ttm", (source,), BlockSource(
                        want.shape, want.dtype, path=str(path), offset=offset
                    ), (matrix, mode), split, lo, hi)
                    for lo, hi in spans
                ]
                got = []
                for _ in range(2):
                    with open(path, "wb") as fh:
                        fh.write(header)
                        fh.truncate(offset + want.nbytes)
                    calls.clear()
                    map(tasks)
                    runs = math.prod(want.shape[:split or 0])
                    assert len(calls) == len(spans) * runs, (mode, split)
                    assert path.read_bytes()[:offset] == header
                    got.append(np.fromfile(
                        path, dtype=want.dtype, offset=offset
                    ).reshape(want.shape))
                np.testing.assert_array_equal(got[1], got[0])
                np.testing.assert_allclose(
                    got[0], want, rtol=0, atol=1e-12,
                    err_msg=f"mode {mode}, split {split}",
                )
        handle.close()


def test_ttm_into_an_empty_file_sink_writes_nothing(monkeypatch, tmp_path):
    """A rank-0 factor gives a zero-byte stored output: no run to write."""
    with MmapStore(root=str(tmp_path)) as store:
        x = StoredTensor.spill(store, np.ones((4, 5, 3)))
        monkeypatch.setattr(os, "pwrite", None)  # any call would raise
        out = ttm_in_process(x, np.ones((0, 4)), 0, 1, serial_map)
        assert out.shape == (0, 5, 3) and out.nbytes == 0


def test_a_stored_source_is_its_file(tmp_path):
    """``BlockSource.of`` hands out the file a stored handle names, so
    every block maps its own region; only a zero-byte tensor, which has
    no file to map, comes back as an array."""
    x = np.arange(60.0).reshape(3, 4, 5)
    path = tmp_path / "input.npy"
    np.save(path, x)
    with MmapStore(root=str(tmp_path / "raw")) as store, MmapStore(
        root=str(tmp_path / "zlib"), codec="zlib"
    ) as packed:
        for handle in (
            StoredTensor.spill(store, x),
            StoredTensor.spill(packed, x),  # decoded to a scratch file
            StoredTensor.external(store, np.load(path, mmap_mode="r")),
        ):
            source = BlockSource.of(handle)
            assert source.array is None and source.store is handle.store
            assert (source.path, source.offset) == handle.mappable()
            np.testing.assert_array_equal(source.open()[0], x)
        empty = BlockSource.of(StoredTensor.spill(store, np.ones((0, 4))))
        assert empty.path is None and empty.array.shape == (0, 4)


#: stored shapes whose outer modes are short, cut under a 4 KiB store:
#: which mode fits one-unit slabs depends on the TTM mode and on the
#: worker count (the per-block bytes halve at two workers)
OUTER_CUT_SHAPES = {"3d": (20, 6, 16), "4d": (9, 3, 8, 10)}


def outermost_fitting(dims, avoid, itemsize, per_block):
    """The stored cut rule, spelled out: the first mode but ``avoid``
    whose one-unit slab fits ``per_block``, else the longest."""
    size = math.prod(dims) * itemsize
    fits = [
        m for m, n in enumerate(dims)
        if m != avoid and n > 1 and size // n <= per_block
    ]
    if fits:
        return fits[0]
    return max((n, m) for m, n in enumerate(dims) if m != avoid)[1]


@pytest.mark.parametrize("n_workers", (1, 2))
@pytest.mark.parametrize("shape", sorted(OUTER_CUT_SHAPES))
def test_stored_ttm_is_cut_along_the_outermost_mode_that_fits(
    shape, n_workers, monkeypatch, tmp_path
):
    dims = OUTER_CUT_SHAPES[shape]
    rng = np.random.default_rng(5)
    x = rng.standard_normal(dims)
    calls = []
    pwrite = os.pwrite

    def counting(fd, data, at):
        calls.append(len(data))
        return pwrite(fd, data, at)

    splits = set()
    with MmapStore(root=str(tmp_path), max_block_bytes=4096) as store:
        per_block = store.per_block_bytes(n_workers)
        handle = StoredTensor.spill(store, x)
        for mode in range(len(dims)):
            split, spans = _cut(BlockSource.of(handle), mode, n_workers)
            assert split == outermost_fitting(dims, mode, 8, per_block)
            splits.add(split)
            slab = x.nbytes // dims[split]
            assert all((hi - lo) * slab <= per_block for lo, hi in spans)
            matrix = rng.standard_normal((3, dims[mode]))
            want = ttm(x, matrix, mode)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(os, "pwrite", counting)
                out = ttm_in_process(
                    handle, matrix, mode, n_workers, serial_map
                )
            assert len(calls) == len(spans) * math.prod(want.shape[:split])
            np.testing.assert_allclose(
                np.asarray(out.open()), want, rtol=0, atol=1e-10
            )
            out.close()
        handle.close()
    # a middle or last mode is cut somewhere: the rule is not "mode 0"
    assert splits - {0}


def test_stored_cut_falls_back_to_the_longest_mode(tmp_path):
    """No one-unit slab fits: the longest free mode, as resident cuts."""
    with MmapStore(root=str(tmp_path), max_block_bytes=256) as store:
        source = BlockSource(
            (4, 50, 60), np.float64, path="unmapped", store=store
        )
        assert _cut(source, 0, 1)[0] == 2
        assert _cut(source, 2, 1)[0] == 1


def test_spilled_intermediate_cut_issues_one_write_per_outer_row(tmp_path):
    """The (224, 26, 192) intermediate of a 16M-budget run, at mode 0:
    cut along mode 1, its output blocks take 28 positioned writes each,
    where a last-mode cut would take 28 x 26."""
    with MmapStore(
        root=str(tmp_path), max_block_bytes=16 * 2**20 // OC_LEASE_FACTOR
    ) as store:
        source = BlockSource(
            (224, 26, 192), np.float64, path="unmapped", store=store
        )
        assert _cut(source, 0, 1)[0] == 1
        resident = BlockSource((224, 26, 192), np.float64, path="unmapped")
        assert _cut(resident, 0, 1)[0] == 2  # resident cuts: unchanged


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


def own_segments() -> set[str]:
    """This process's segments: other processes may share ``/dev/shm``."""
    return {e for e in os.listdir("/dev/shm") if e.startswith(segment_prefix())}


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
    before = own_segments()
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
    assert own_segments() - before == set()
    assert list(tmp_path.iterdir()) == []
