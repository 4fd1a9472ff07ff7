"""Crash-injection tests: ProcessPoolBackend must survive worker failure.

A worker exception (or a worker dying outright) mid-fan-out must leave the
backend healthy: every shared-memory segment that will never reach the
caller is unlinked (``/dev/shm`` stays clean) and the pool either remains
usable or is cleanly dropped and transparently rebuilt on the next kernel.
"""

import gc
import os
import sys

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.backends.blockkernels import KERNELS
from repro.backends.procpool import (
    ProcessPoolBackend,
    ShmTensor,
    segment_prefix,
)
from repro.backends.sequential import SequentialBackend
from repro.backends.sketch import single_pass_specs
from repro.storage import MmapStore
from repro.tensor.ttm import ttm

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or not os.path.isdir("/dev/shm"),
    reason="failure injection relies on Linux fork workers and /dev/shm",
)


def shm_entries() -> set[str]:
    """This process's segments: other processes may share ``/dev/shm``."""
    return {e for e in os.listdir("/dev/shm") if e.startswith(segment_prefix())}


def _exit_hard(*args, **kwargs):  # pragma: no cover - runs in a worker
    os._exit(13)


def _gram_bomb(*args, **kwargs):  # pragma: no cover - runs in a worker
    raise RuntimeError("injected gram failure")


_REAL_NORM = KERNELS["norm"]


def _norm_bomb(piece):  # pragma: no cover - worker
    """Kill the worker only for the block carrying the poison marker."""
    if float(piece[0]) > 100.0:
        os._exit(13)
    return _REAL_NORM(piece)


@pytest.fixture
def tensor():
    return np.random.default_rng(0).standard_normal((8, 6, 5))


def test_segment_names_carry_the_owner_pid():
    before = shm_entries()
    handle = ShmTensor((4, 3), np.float64)
    assert handle.name.startswith(f"rp{os.getpid()}_")
    assert shm_entries() - before == {handle.name}
    handle.close()
    assert shm_entries() == before


class TestWorkerException:
    def test_ttm_failure_unlinks_output_and_pool_survives(self, tensor):
        backend = ProcessPoolBackend(n_workers=2)
        try:
            handle = backend.distribute(tensor, ())
            before = shm_entries()
            bad = np.zeros((3, 99))  # wrong inner dim: every block task raises
            with pytest.raises(ValueError):
                backend.ttm(handle, bad, 0)
            gc.collect()
            # The preallocated output segment was unlinked on failure.
            assert shm_entries() - before == set()
            # The pool survived the (non-fatal) worker exception...
            assert backend._pool is not None
            # ...and the very next kernel still produces correct numbers.
            good = np.random.default_rng(1).standard_normal((3, 8))
            out = backend.gather(backend.ttm(handle, good, 0))
            np.testing.assert_allclose(out, ttm(tensor, good, 0), atol=1e-12)
        finally:
            backend.close()

    def test_gram_failure_leaves_backend_usable(self, tensor, monkeypatch):
        # Patch before the pool ever forks so workers inherit the bomb.
        real = KERNELS["gram"]
        monkeypatch.setitem(KERNELS, "gram", _gram_bomb)
        backend = ProcessPoolBackend(n_workers=2)
        try:
            handle = backend.distribute(tensor, ())
            before = shm_entries()
            with pytest.raises(RuntimeError, match="injected"):
                backend.leading_factor(handle, 0, 3)
            monkeypatch.setitem(KERNELS, "gram", real)
            gc.collect()
            assert shm_entries() - before == set()
            # The pool is poisoned (forked workers keep the bomb), so drop
            # it; the backend reopens a clean pool on the next kernel.
            backend.close()
            factor = backend.leading_factor(handle, 0, 3)
            assert factor.shape == (8, 3)
        finally:
            backend.close()


class TestGatherViewLifetime:
    def test_gather_view_outlives_handle(self, tensor):
        # Regression: numpy >= 2 ndarrays do not pin the exporting
        # memoryview, so a handle-tied finalizer would unmap the segment
        # under a still-referenced gather() view (a parent segfault).
        # The finalizer is tied to the view: reads stay valid, and the
        # segment is unlinked only once the view itself dies.
        backend = ProcessPoolBackend(n_workers=2)
        try:
            handle = backend.distribute(tensor, ())
            before = shm_entries()
            matrix = np.random.default_rng(3).standard_normal((3, 8))
            res = backend.gather(backend.ttm(handle, matrix, 0))
            gc.collect()  # the ttm handle is gone; the view must survive
            np.testing.assert_allclose(res, ttm(tensor, matrix, 0), atol=1e-12)
            del res
            gc.collect()
            assert shm_entries() - before == set()
        finally:
            backend.close()


class TestWorkerDeath:
    @pytest.mark.parametrize("transport", ["shm", "file"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_dead_worker_resets_pool_and_cleans_shm(
        self, kernel, transport, tmp_path, monkeypatch
    ):
        """One worker entry serves every kernel on both transports: a
        worker dying in any of them is a typed error, leaves ``/dev/shm``
        and the spill root clean and the pool dropped, and the next call
        of the same kernel recovers on a fresh pool."""
        tensor = np.random.default_rng(0).standard_normal((24, 20, 16))
        matrix = np.random.default_rng(2).standard_normal((6, 24))
        specs = single_pass_specs(
            np.random.default_rng(3), tensor.shape, (4, 4, 3), 2, tensor.dtype
        )

        def call(b, handle):
            if kernel == "ttm":
                return np.asarray(b.gather(b.ttm(handle, matrix, 0)))
            if kernel == "gram":
                return b.leading_factor(handle, 0, 3)
            if kernel == "xgram":
                return b.cross_gram(handle, handle, 0)
            if kernel == "sketch":
                sketches, norm_sq = b.sketch(handle, specs)
                return np.concatenate(
                    [s.ravel() for s in sketches] + [[norm_sq]]
                )
            return b.fro_norm_sq(handle)

        backend = ProcessPoolBackend(n_workers=2)
        store = None
        if transport == "file":
            store = MmapStore(root=str(tmp_path), max_block_bytes=8192)
        try:
            handle = backend.distribute(tensor, (), store=store)
            before = shm_entries()
            input_keys = set(store.keys()) if store is not None else None
            # Patch before the first kernel: the pool forks lazily, so the
            # workers inherit the hard-exit stub.
            monkeypatch.setitem(KERNELS, kernel, _exit_hard)
            with pytest.raises(BrokenProcessPool):
                call(backend, handle)
            gc.collect()
            # No leaked segments or spill blocks, and the broken pool
            # was dropped.
            assert shm_entries() - before == set()
            if store is not None:
                assert set(store.keys()) == input_keys
            assert backend._pool is None
            # A fresh pool (forked with the real block function) recovers.
            monkeypatch.undo()
            np.testing.assert_allclose(
                call(backend, handle),
                call(SequentialBackend(), tensor),
                atol=1e-10,
            )
        finally:
            backend.close()
            if store is not None:
                store.close()
        assert list(tmp_path.iterdir()) == []

    def test_session_batch_survives_pool_recovery(self, tensor):
        """A run_many stream keeps going after the pool is rebuilt."""
        from repro.session import TuckerSession

        # The bomb is data-dependent: only the marked tensor kills its
        # worker, so the rebuilt pool (which forks the same patched
        # module) decomposes the healthy items normally.
        poisoned = tensor.copy()
        poisoned.flat[0] = 1e6
        KERNELS["norm"] = _norm_bomb
        backend = ProcessPoolBackend(n_workers=2)
        session = TuckerSession(backend=backend)
        try:
            before = shm_entries()
            batch = session.run_many(
                [poisoned, tensor + 1.0],
                (3, 3, 2),
                planner="optimal",
                n_procs=2,
                max_iters=1,
                on_error="skip",
            )
            gc.collect()
            assert shm_entries() - before == set()
            assert len(batch.failures) == 1
            assert batch.failures[0].index == 0
            # Item 1 ran on a freshly rebuilt pool and succeeded.
            assert batch.n_items == 1
            assert batch.items[0].index == 1
            assert np.isfinite(batch.items[0].error)
        finally:
            KERNELS["norm"] = _REAL_NORM
            session.close()


class TestTracedCrash:
    def test_traced_batch_keeps_spans_across_worker_death(self, tensor):
        """Crash forensics: a traced stream retains the failed item's
        partial spans (marked ``error``) and the healthy items' worker
        spans on the rebuilt pool."""
        from repro.session import TuckerSession

        poisoned = tensor.copy()
        poisoned.flat[0] = 1e6
        KERNELS["norm"] = _norm_bomb
        backend = ProcessPoolBackend(n_workers=2)
        session = TuckerSession(backend=backend, trace=True)
        try:
            batch = session.run_many(
                [poisoned, tensor + 1.0],
                (3, 3, 2),
                planner="optimal",
                n_procs=2,
                max_iters=1,
                on_error="skip",
            )
            assert len(batch.failures) == 1
            assert batch.n_items == 1
            trace = batch.trace
            assert trace is not None
            # Two run roots survive in the batch timeline: the failed
            # item's partial trace and the successful item's full one.
            runs = trace.find("run")
            assert len(runs) == 2
            assert any("error" in s.attrs for s in runs)
            # The healthy item's fan-out produced worker spans from the
            # rebuilt pool.
            workers = trace.by_kind("worker")
            assert workers
            for w in workers:
                assert w.seconds >= 0
            # The observer never leaks past the crashed run.
            assert backend.ledger.observer is None
        finally:
            KERNELS["norm"] = _REAL_NORM
            session.close()

    def test_untraced_crash_leaves_tracer_empty(self, tensor):
        from repro.session import TuckerSession

        poisoned = tensor.copy()
        poisoned.flat[0] = 1e6
        KERNELS["norm"] = _norm_bomb
        backend = ProcessPoolBackend(n_workers=2)
        session = TuckerSession(backend=backend)
        try:
            batch = session.run_many(
                [poisoned], (3, 3, 2), planner="optimal", n_procs=2,
                max_iters=1, on_error="skip",
            )
            assert len(batch.failures) == 1
            assert batch.trace is None
            assert session.tracer.mark() == 0
            assert session.last_error_trace is None
        finally:
            KERNELS["norm"] = _REAL_NORM
            session.close()
