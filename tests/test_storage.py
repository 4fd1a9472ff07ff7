"""The block-store contract: round-trips, corruption, cleanliness.

Property tests (hypothesis) pin the storage layer the same way the
dist-engine suite pins the collectives:

* **round-trips** — write block -> read block is *bit-identical* across
  dtypes, shapes and chunk sizes;
* **typed corruption** — a truncated spill file, a mangled or missing
  manifest, an inconsistent shape/byte count all raise
  :class:`~repro.storage.CorruptBlockError` with a machine-checkable
  ``reason``, never silently wrong data;
* **no orphans** — a closed store leaves an empty spill location (the
  same discipline the procpool suite enforces for ``/dev/shm``), and
  dropped handles reclaim their blocks.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.blockpar import oc_block_slices
from repro.backends.select import STORAGE_MODES, select_storage
from repro.storage import (
    DEFAULT_ZLIB_LEVEL,
    CorruptBlockError,
    MmapStore,
    ResidentGauge,
    StorageError,
    StoredTensor,
    check_codec,
    parse_bytes,
)

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8]

shapes = st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)
chunk_sizes = st.sampled_from([1, 7, 64, 4096, 2**20])


def _array_for(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.floating):
        return rng.standard_normal(shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape, dtype=dtype)


# --------------------------------------------------------------------- #
# round-trips
# --------------------------------------------------------------------- #


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=shapes,
        dtype=st.sampled_from(DTYPES),
        chunk=chunk_sizes,
        seed=st.integers(0, 2**16),
    )
    def test_mmap_round_trip_bit_identical(
        self, tmp_path_factory, shape, dtype, chunk, seed
    ):
        array = _array_for(shape, dtype, seed)
        with MmapStore(
            root=str(tmp_path_factory.mktemp("rt")), chunk_bytes=chunk
        ) as store:
            store.put("blk", array)
            back = store.get("blk")
            assert back.dtype == array.dtype
            assert tuple(back.shape) == tuple(array.shape)
            np.testing.assert_array_equal(np.asarray(back), array)
            # bit-identical, not just value-equal
            assert np.asarray(back).tobytes() == array.tobytes()
            assert store.meta_of("blk") == (tuple(array.shape), array.dtype)
            del back

    def test_strided_source_round_trips(self, tmp_path):
        """A non-contiguous view (a brick of a bigger tensor) spills right."""
        base = _array_for((12, 10, 8), np.float64, 3)
        view = base[1:9, ::2, 3:]
        with MmapStore(root=str(tmp_path), chunk_bytes=128) as store:
            store.put("brick", view)
            np.testing.assert_array_equal(
                np.asarray(store.get("brick")), np.ascontiguousarray(view)
            )

    def test_writer_mutations_persist(self, tmp_path):
        with MmapStore(root=str(tmp_path)) as store:
            store.create("out", (4, 3), np.float64)
            w = store.writer("out")
            w[...] = 7.0
            w.flush()
            del w
            np.testing.assert_array_equal(
                np.asarray(store.get("out")), np.full((4, 3), 7.0)
            )


# --------------------------------------------------------------------- #
# typed corruption
# --------------------------------------------------------------------- #


class TestCorruption:
    def _store_with_block(self, tmp_path) -> MmapStore:
        store = MmapStore(root=str(tmp_path))
        store.put("x", np.arange(100, dtype=np.float64).reshape(10, 10))
        return store

    def test_truncated_data_file(self, tmp_path):
        store = self._store_with_block(tmp_path)
        with open(store.path_of("x"), "r+b") as fh:
            fh.truncate(13)
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "size-mismatch"
        assert info.value.key == "x"

    def test_grown_data_file(self, tmp_path):
        store = self._store_with_block(tmp_path)
        with open(store.path_of("x"), "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(CorruptBlockError, match="truncated or over"):
            store.get("x")

    def test_missing_data_file(self, tmp_path):
        store = self._store_with_block(tmp_path)
        os.remove(store.path_of("x"))
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "missing-data"

    def test_data_without_manifest_is_interrupted_spill(self, tmp_path):
        store = self._store_with_block(tmp_path)
        os.remove(os.path.join(store.directory, "x.json"))
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "missing-manifest"

    def test_mangled_manifest_json(self, tmp_path):
        store = self._store_with_block(tmp_path)
        with open(os.path.join(store.directory, "x.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "bad-manifest-json"

    def test_manifest_missing_fields(self, tmp_path):
        store = self._store_with_block(tmp_path)
        with open(os.path.join(store.directory, "x.json"), "w") as fh:
            json.dump({"version": 1, "key": "x"}, fh)
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "bad-manifest-fields"

    def test_manifest_wrong_version(self, tmp_path):
        store = self._store_with_block(tmp_path)
        path = os.path.join(store.directory, "x.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["version"] = 999
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "bad-manifest-version"

    def test_inconsistent_manifest_byte_count(self, tmp_path):
        store = self._store_with_block(tmp_path)
        path = os.path.join(store.directory, "x.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["nbytes"] = manifest["nbytes"] - 8
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CorruptBlockError) as info:
            store.get("x")
        assert info.value.reason == "inconsistent-manifest"

    def test_corrupt_is_storage_error(self):
        assert issubclass(CorruptBlockError, StorageError)

    def test_missing_key_is_keyerror(self, tmp_path):
        with MmapStore(root=str(tmp_path)) as store:
            with pytest.raises(KeyError):
                store.get("nope")

    def test_bad_keys_rejected(self, tmp_path):
        with MmapStore(root=str(tmp_path)) as store:
            for key in ("", "../escape", "a/b", ".hidden", "sp ace", 7):
                with pytest.raises(ValueError):
                    store.put(key, np.zeros(2))


# --------------------------------------------------------------------- #
# cleanliness: no orphaned spill files, ever
# --------------------------------------------------------------------- #


class TestCleanup:
    def test_close_empties_spill_root(self, tmp_path):
        store = MmapStore(root=str(tmp_path))
        for i in range(5):
            store.put(store.next_key("b"), np.arange(10.0 + i))
        directory = store.directory
        assert os.listdir(directory)
        store.close()
        assert not os.path.exists(directory)
        assert os.listdir(tmp_path) == []  # the named root itself survives
        store.close()  # idempotent
        with pytest.raises(StorageError):
            store.put("late", np.zeros(2))
        with pytest.raises(StorageError):
            store.get("late")

    def test_finalizer_reclaims_unclosed_store(self, tmp_path):
        store = MmapStore(root=str(tmp_path))
        store.put("x", np.zeros(8))
        directory = store.directory
        del store  # no close(): the weakref finalizer must reclaim
        import gc

        gc.collect()
        assert not os.path.exists(directory)

    def test_spill_dir_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spills"))
        store = MmapStore()
        assert str(tmp_path / "spills") in store.directory
        store.close()
        assert os.listdir(tmp_path / "spills") == []

    def test_dropped_handles_reclaim_blocks(self, tmp_path):
        store = MmapStore(root=str(tmp_path))
        stored = StoredTensor.spill(store, np.arange(64.0))
        assert store.keys()
        stored.close()
        assert store.keys() == []
        store.close()

    def test_external_files_never_deleted(self, tmp_path):
        path = tmp_path / "input.npy"
        np.save(path, np.arange(32.0).reshape(4, 8))
        mapped = np.load(path, mmap_mode="r")
        store = MmapStore(root=str(tmp_path / "root"))
        ext = StoredTensor.external(store, mapped)
        assert not ext.owned and ext.offset > 0
        np.testing.assert_array_equal(np.asarray(ext.open()), mapped)
        with pytest.raises(StorageError):
            ext.writer()
        ext.close()
        store.close()
        assert path.exists()

    def test_delete_is_idempotent(self, tmp_path):
        with MmapStore(root=str(tmp_path)) as store:
            store.put("x", np.zeros(4))
            store.delete("x")
            store.delete("x")
            assert store.keys() == []


# --------------------------------------------------------------------- #
# gauge + geometry + policy
# --------------------------------------------------------------------- #


class TestGaugeAndGeometry:
    def test_gauge_lease_accounting(self):
        gauge = ResidentGauge()
        with gauge.lease(100):
            assert gauge.current == 100
            with gauge.lease(50):
                assert gauge.current == 150
        assert gauge.current == 0
        assert gauge.peak == 150
        gauge.reset()
        assert gauge.peak == 0

    def test_chunked_put_bounds_resident_bytes(self, tmp_path):
        gauge = ResidentGauge()
        store = MmapStore(root=str(tmp_path), chunk_bytes=256, gauge=gauge)
        store.put("big", np.zeros((64, 16)))  # 8 KiB in 256-byte chunks
        # each row is 128 bytes -> 2 rows per chunk lease
        assert gauge.peak <= 256
        store.close()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 30), min_size=1, max_size=4).map(tuple),
        split=st.integers(0, 3),
        per_block=st.integers(1, 1 << 16),
        n_workers=st.integers(1, 8),
    )
    def test_oc_block_slices_cover_and_bound(
        self, shape, split, per_block, n_workers
    ):
        split = split % len(shape)
        itemsize = 8
        slices = oc_block_slices(shape, split, itemsize, per_block, n_workers)
        # exact cover, in order, no overlap
        assert slices[0].start == 0 and slices[-1].stop == shape[split]
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start
        # bounded: each block holds <= per_block bytes, unless a single
        # unit of the split axis already exceeds it (finest possible cut)
        size = int(np.prod(shape))
        slab = size // shape[split] * itemsize
        for sl in slices:
            if slab <= per_block:
                assert (sl.stop - sl.start) * slab <= per_block
            else:
                assert sl.stop - sl.start == 1

    def test_parse_bytes(self):
        assert parse_bytes(1234) == 1234
        assert parse_bytes("512") == 512
        assert parse_bytes("2K") == 2048
        assert parse_bytes("1.5M") == int(1.5 * 2**20)
        assert parse_bytes("1G") == 2**30
        assert parse_bytes("64MiB") == 64 * 2**20
        for bad in ("", "fast", "-1", "1Q", -5):
            with pytest.raises(ValueError):
                parse_bytes(bad)


class TestSelectStorage:
    def test_explicit_modes(self):
        assert select_storage(10, "memory", 1).mode == "memory"
        assert select_storage(10, "mmap", None).mode == "mmap"

    def test_auto_spills_over_budget_only(self):
        assert select_storage(100, "auto", 50).mode == "mmap"
        assert select_storage(100, "auto", 100).mode == "memory"
        assert select_storage(100, "auto", None).mode == "memory"
        assert select_storage(1, "auto", 0).mode == "mmap"

    def test_budget_strings_and_env(self, monkeypatch):
        assert select_storage(3 * 2**20, "auto", "2M").mode == "mmap"
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1K")
        assert select_storage(2048, "auto").mode == "mmap"
        assert select_storage(512, "auto").mode == "memory"

    def test_bad_inputs_raise(self):
        with pytest.raises(ValueError):
            select_storage(10, "disk")
        with pytest.raises(ValueError):
            select_storage(-1, "auto")
        assert "disk" not in STORAGE_MODES

    @settings(max_examples=60, deadline=None)
    @given(
        nbytes=st.integers(0, 1 << 40),
        budget=st.one_of(st.none(), st.integers(0, 1 << 40)),
        storage=st.sampled_from(STORAGE_MODES),
    )
    def test_pure_and_deterministic(self, nbytes, budget, storage):
        a = select_storage(nbytes, storage, budget)
        b = select_storage(nbytes, storage, budget)
        assert a == b
        assert a.mode in ("memory", "mmap")
        if storage == "auto" and budget is not None:
            assert a.spilled == (nbytes > budget)


class TestReviewRegressions:
    """Pinned fixes: falsy-zero budgets, zero-size blocks, chunked casts."""

    def test_max_block_bytes_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_block_bytes"):
            MmapStore(root=str(tmp_path), max_block_bytes=0)

    def test_zero_element_blocks_round_trip_both_paths(self, tmp_path):
        with MmapStore(root=str(tmp_path)) as store:
            store.put("empty", np.empty((0, 3), dtype=np.float64))
            got = store.get("empty")
            assert got.shape == (0, 3) and got.dtype == np.float64
            store.create("alloc", (4, 0), np.float32)
            assert store.writer("alloc").shape == (4, 0)
            assert store.get("alloc").nbytes == 0
            assert store.nbytes == 0

    def test_put_with_dtype_casts_chunked_and_exact(self, tmp_path):
        src = np.arange(4096, dtype=np.float64).reshape(64, 64)
        gauge = ResidentGauge()
        with MmapStore(
            root=str(tmp_path), chunk_bytes=256, gauge=gauge
        ) as store:
            store.put("f32", src, dtype=np.float32)
            got = store.get("f32")
            assert got.dtype == np.float32
            np.testing.assert_array_equal(
                np.asarray(got), src.astype(np.float32)
            )
            # leases were charged at target-chunk granularity, never the
            # whole converted block
            assert gauge.peak <= 256

    def test_zero_memory_budget_means_finest_cut_not_default(self):
        """budget=0 must not fall back to the 64MB default ceiling."""
        sel = select_storage(100, "auto", 0)
        assert sel.spilled and sel.memory_budget == 0

    def test_session_honors_zero_budget(self, tmp_path):
        from repro.session import TuckerSession

        t = np.random.default_rng(0).standard_normal((12, 10, 8))
        session = TuckerSession(
            backend="sequential",
            storage="auto",
            memory_budget=0,
            spill_dir=str(tmp_path),
        )
        res = session.run(t, (3, 3, 2), planner="optimal", n_procs=2,
                          max_iters=1)
        assert res.storage == "mmap"
        # finest-cut blocks: the peak lease is a handful of slabs, far
        # below one whole-tensor materialization
        assert list(tmp_path.iterdir()) == []

    def test_lazy_input_dtype_cast_never_materializes(self, tmp_path):
        """An int64 .npy run at float64 casts through the store, chunked."""
        from repro.session import TuckerSession, _maybe_cast
        from repro.storage import resident_gauge

        t = np.random.default_rng(1).integers(
            -50, 50, size=(24, 20, 16), dtype=np.int64
        )
        path = tmp_path / "ints.npy"
        np.save(path, t)
        mapped = np.load(path, mmap_mode="r")
        # the prepare-side half defers (no full-RAM astype of a mapping)
        assert _maybe_cast(mapped, np.float64) is mapped
        gauge = resident_gauge()
        gauge.reset()
        session = TuckerSession(
            backend="sequential",
            storage="mmap",
            memory_budget="16K",
            spill_dir=str(tmp_path / "spill"),
        )
        res = session.run(mapped, (4, 4, 3), planner="optimal", n_procs=2,
                          max_iters=2, tol=-np.inf)
        ref = TuckerSession(backend="sequential").run(
            t.astype(np.float64), (4, 4, 3), planner="optimal", n_procs=2,
            max_iters=2, tol=-np.inf,
        )
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=1e-10
        )
        # the cast was chunked: nothing tensor-sized was ever leased
        assert gauge.peak < t.nbytes
        assert list((tmp_path / "spill").iterdir()) == []

    def test_external_view_offset_derived_from_pointers(self, tmp_path):
        """Regression: a sliced memmap must map its own region, not the
        file head (views inherit the parent's stale .offset)."""
        base = np.arange(240, dtype=np.float64).reshape(10, 24)
        path = tmp_path / "base.npy"
        np.save(path, base)
        mapped = np.load(path, mmap_mode="r")
        view = mapped[2:]  # C-contiguous, offset attribute still stale
        assert view.offset == mapped.offset  # the numpy footgun itself
        with MmapStore(root=str(tmp_path / "s")) as store:
            ext = StoredTensor.external(store, view)
            assert ext.offset == mapped.offset + 2 * 24 * 8
            np.testing.assert_array_equal(np.asarray(ext.open()), base[2:])

    def test_sliced_lazy_input_decomposes_correctly(self, tmp_path):
        """End to end: run() on a memmap slice reads the right bytes."""
        from repro.session import TuckerSession

        full = np.random.default_rng(4).standard_normal((14, 12, 10))
        path = tmp_path / "full.npy"
        np.save(path, full)
        view = np.load(path, mmap_mode="r")[2:]
        res = TuckerSession(
            backend="threaded", storage="mmap",
            spill_dir=str(tmp_path / "sp"),
        ).run(view, (3, 3, 2), planner="optimal", n_procs=2, max_iters=2,
              tol=-np.inf)
        ref = TuckerSession(backend="sequential").run(
            full[2:], (3, 3, 2), planner="optimal", n_procs=2, max_iters=2,
            tol=-np.inf,
        )
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=1e-10
        )

    def test_run_distributes_once_per_call(self, monkeypatch):
        """Regression: STHOSVD + HOOI share one placed handle (no double
        spill/copy of the input)."""
        from repro.backends.sequential import SequentialBackend
        from repro.session import TuckerSession

        calls = []
        real = SequentialBackend.distribute

        def spy(self, tensor, grid, *, store=None):
            calls.append(grid)
            return real(self, tensor, grid, store=store)

        monkeypatch.setattr(SequentialBackend, "distribute", spy)
        t = np.random.default_rng(5).standard_normal((12, 10, 8))
        TuckerSession(backend="sequential").run(
            t, (3, 3, 2), planner="optimal", n_procs=2, max_iters=2
        )
        assert len(calls) == 1

    def test_put_chunk_bound_holds_for_small_leading_axis(self, tmp_path):
        """Regression: a fat first-axis slab must not blow the chunk lease."""
        gauge = ResidentGauge()
        with MmapStore(
            root=str(tmp_path), chunk_bytes=4096, gauge=gauge
        ) as store:
            t = np.zeros((2, 64, 64, 8))  # one axis-0 slab = 256 KiB
            store.put("fat", t)
            np.testing.assert_array_equal(np.asarray(store.get("fat")), t)
        assert gauge.peak <= 4096

    def test_hooi_early_return_reports_no_spill(self, tmp_path):
        """max_iters=0 places nothing, so the result must say 'memory'."""
        from repro.session import TuckerSession

        t = np.random.default_rng(6).standard_normal((10, 8, 6))
        session = TuckerSession(backend="sequential")
        init = session.run(t, (3, 3, 2), planner="optimal", n_procs=2,
                           max_iters=1)
        res = session.hooi(
            t, init.decomposition, planner="optimal", n_procs=2,
            max_iters=0, storage="mmap", spill_dir=str(tmp_path),
        )
        assert res.storage == "memory"
        assert "never placed" in res.storage_reason
        assert list(tmp_path.iterdir()) == []

    def test_run_reduces_input_norm_once(self, monkeypatch):
        """Regression: STHOSVD + HOOI share one input-norm reduction."""
        from repro.backends.sequential import SequentialBackend
        from repro.session import TuckerSession

        tags = []
        real = SequentialBackend.fro_norm_sq

        def spy(self, handle, *, tag="norm"):
            tags.append(tag)
            return real(self, handle, tag=tag)

        monkeypatch.setattr(SequentialBackend, "fro_norm_sq", spy)
        t = np.random.default_rng(7).standard_normal((12, 10, 8))
        TuckerSession(backend="sequential").run(
            t, (3, 3, 2), planner="optimal", n_procs=2, max_iters=2,
            tol=-np.inf,
        )
        assert tags.count("norm:input") == 1

    def test_scalar_blocks_round_trip_same_shape(self, tmp_path):
        """A 0-d block comes back 0-d (np.memmap itself needs >= 1 axis)."""
        scalar = np.array(3.5)
        with MmapStore(root=str(tmp_path)) as store:
            store.put("s", scalar)
            assert store.meta_of("s") == ((), np.dtype(np.float64))
            assert store.get("s").shape == ()
            assert float(store.get("s")) == 3.5

    def test_zero_budget_spill_uses_page_sized_chunks(self, tmp_path):
        """budget=0 must not degrade to one-element copy loops."""
        from repro.session import TuckerSession

        session = TuckerSession(
            backend="sequential", storage="auto", memory_budget=0,
            spill_dir=str(tmp_path),
        )
        store = session._open_store(
            session._select_storage(10**6, None, None), None
        )
        try:
            assert store.max_block_bytes >= 4096
            assert store.chunk_bytes >= 4096
        finally:
            store.close()


# --------------------------------------------------------------------- #
# spill codecs
# --------------------------------------------------------------------- #


class TestCodecs:
    def test_check_codec_normalizes_and_rejects(self):
        assert check_codec(None) == "raw"
        assert check_codec("") == "raw"
        assert check_codec("raw") == "raw"
        assert check_codec("zlib") == f"zlib:{DEFAULT_ZLIB_LEVEL}"
        assert check_codec("zlib:1") == "zlib:1"
        assert check_codec("narrow") == "narrow"
        assert check_codec("NARROW") == "narrow"  # specs are case-folded
        for bad in ("gzip", "zlib:10", "zlib:-1", "zlib:x", "zlib:"):
            with pytest.raises(ValueError):
                check_codec(bad)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, chunk=chunk_sizes, seed=st.integers(0, 2**16))
    def test_zlib_round_trip_bit_identical(
        self, tmp_path_factory, shape, chunk, seed
    ):
        array = _array_for(shape, np.float64, seed)
        with MmapStore(
            root=str(tmp_path_factory.mktemp("z")),
            chunk_bytes=chunk,
            codec="zlib:6",
        ) as store:
            store.put("blk", array)
            meta = store.block_meta("blk")
            assert meta.codec == "zlib:6"
            assert meta.nbytes == array.nbytes
            back = np.asarray(store.get("blk"))
            assert back.tobytes() == array.tobytes()

    def test_zlib_compresses_compressible_data(self, tmp_path):
        array = np.zeros((64, 64), dtype=np.float64)
        array[::4] = 1.0
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            meta = store.block_meta("blk")
            assert 0 < meta.stored_nbytes < array.nbytes
            stats = store.codec_stats()
            assert stats["spill_codec"] == "zlib:6"
            assert stats["spill_bytes_written"] == meta.stored_nbytes
            assert stats["spill_bytes_logical"] == array.nbytes
            assert stats["spill_error_bound"] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, chunk=chunk_sizes, seed=st.integers(0, 2**16))
    def test_narrow_within_recorded_bound(
        self, tmp_path_factory, shape, chunk, seed
    ):
        array = _array_for(shape, np.float64, seed)
        with MmapStore(
            root=str(tmp_path_factory.mktemp("n")),
            chunk_bytes=chunk,
            codec="narrow",
        ) as store:
            store.put("blk", array)
            meta = store.block_meta("blk")
            assert meta.codec == "narrow"
            assert meta.stored_nbytes == array.size * 4
            back = np.asarray(store.get("blk"))
            # the decode is exactly the float32 round-trip...
            np.testing.assert_array_equal(
                back, array.astype(np.float32).astype(np.float64)
            )
            # ...and the manifest's recorded bounds actually hold.
            diff = np.abs(back - array)
            assert float(diff.max(initial=0.0)) <= meta.abs_error
            nonzero = array != 0
            if nonzero.any():
                rel = (diff[nonzero] / np.abs(array[nonzero])).max()
                assert float(rel) <= meta.rel_error + 1e-300

    def test_decode_scratch_counts_as_written_once(self, tmp_path):
        # the first read decodes into a full-size raw scratch file: those
        # bytes hit the disk too; later reads reuse it and write nothing
        array = _array_for((32, 16), np.float64, 4)
        with MmapStore(root=str(tmp_path), codec="narrow") as store:
            store.put("blk", array)
            assert store.spill_bytes_written == array.nbytes // 2
            store.get("blk")
            assert store.spill_bytes_written == array.nbytes * 3 // 2
            store.get("blk")
            store.mappable_path("blk")
            assert store.spill_bytes_written == array.nbytes * 3 // 2

    def test_narrow_non_float64_falls_back_to_raw(self, tmp_path):
        array = _array_for((8, 8), np.float32, 1)
        with MmapStore(root=str(tmp_path), codec="narrow") as store:
            store.put("blk", array)
            assert store.block_codec("blk") == "raw"
            assert np.asarray(store.get("blk")).tobytes() == array.tobytes()

    def test_store_codec_overridable_per_put(self, tmp_path):
        array = _array_for((16, 16), np.float64, 2)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("enc", array)
            store.put("flat", array, codec="raw")
            assert store.block_codec("enc") == "zlib:6"
            assert store.block_codec("flat") == "raw"

    def test_codec_blocks_are_read_only(self, tmp_path):
        array = _array_for((8, 8), np.float64, 3)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            with pytest.raises(StorageError, match="read-only"):
                store.writer("blk")
            # created outputs stay raw (and therefore writable)
            store.create("out", (4, 4), np.float64)
            w = store.writer("out")
            w[...] = 1.0
            w.flush()
            del w
            assert store.block_codec("out") == "raw"

    @pytest.mark.parametrize("codec", ["zlib:6", "narrow"])
    def test_encode_decode_hold_gauge_chunk_bound(self, tmp_path, codec):
        gauge = ResidentGauge()
        chunk = 4096
        array = _array_for((64, 64), np.float64, 4)  # 8 chunks worth
        with MmapStore(
            root=str(tmp_path), chunk_bytes=chunk, gauge=gauge, codec=codec
        ) as store:
            store.put("blk", array)
            np.asarray(store.get("blk"))
            # chunked encode + decode never lease more than a few chunks
            # at once -- far below the whole block
            assert gauge.peak <= 3 * chunk
            assert gauge.peak < array.nbytes

    def test_corrupt_compressed_payload(self, tmp_path):
        array = _array_for((32, 32), np.float64, 5)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            path = store.path_of("blk")
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.seek(size // 2)
                byte = fh.read(1)
                fh.seek(size // 2)
                fh.write(bytes([byte[0] ^ 0xFF]))
            with pytest.raises(CorruptBlockError) as info:
                store.get("blk")
            assert info.value.reason == "corrupt-compressed-data"

    def test_truncated_compressed_payload_is_size_mismatch(self, tmp_path):
        array = _array_for((32, 32), np.float64, 6)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            with open(store.path_of("blk"), "r+b") as fh:
                fh.truncate(7)
            with pytest.raises(CorruptBlockError) as info:
                store.get("blk")
            assert info.value.reason == "size-mismatch"

    def test_unknown_manifest_codec(self, tmp_path):
        array = _array_for((8, 8), np.float64, 7)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            manifest_path = os.path.join(store.directory, "blk.json")
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            manifest["codec"] = "gzip"
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            with pytest.raises(CorruptBlockError) as info:
                store.get("blk")
            assert info.value.reason == "unknown-codec"

    def test_decoded_scratch_invisible_and_cleaned(self, tmp_path):
        array = _array_for((16, 16), np.float64, 8)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            np.asarray(store.get("blk"))  # forces the decode scratch
            scratch = os.path.join(store.directory, "blk.dec")
            assert os.path.exists(scratch)
            assert list(store.keys()) == ["blk"]
            store.delete("blk")
            assert not os.path.exists(scratch)
        assert os.listdir(str(tmp_path)) == []

    def test_mappable_path_decodes_for_workers(self, tmp_path):
        array = _array_for((16, 16), np.float64, 9)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", array)
            path = store.mappable_path("blk")
            assert path is not None
            mapped = np.memmap(path, dtype=np.float64, mode="r",
                               shape=(16, 16))
            np.testing.assert_array_equal(np.asarray(mapped), array)
            del mapped

    def test_put_overwrite_drops_stale_scratch(self, tmp_path):
        first = _array_for((16, 16), np.float64, 10)
        second = _array_for((16, 16), np.float64, 11)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            store.put("blk", first)
            np.asarray(store.get("blk"))  # materialize stale scratch
            store.put("blk", second)
            np.testing.assert_array_equal(
                np.asarray(store.get("blk")), second
            )

    def test_spill_handles_for_codec_blocks_resolve_mappable(self, tmp_path):
        array = _array_for((16, 16), np.float64, 12)
        with MmapStore(root=str(tmp_path), codec="zlib:6") as store:
            handle = StoredTensor.spill(store, array, key="blk")
            # encoded blocks carry no direct path; workers go through
            # mappable() which decodes to scratch
            assert handle.path is None
            mapped = handle.mappable()
            assert mapped is not None
            path, offset = mapped
            assert offset == 0
            view = np.memmap(path, dtype=np.float64, mode="r",
                             shape=(16, 16))
            np.testing.assert_array_equal(np.asarray(view), array)
            del view
            handle.close()
