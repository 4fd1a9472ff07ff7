"""Spill/stress layer: budgets hold and crashes reclaim.

Two guarantees the storage subsystem exists for:

* **the budget guard** — a tensor *larger than* ``memory_budget``
  completes under ``storage="auto"`` (which must select ``mmap``), with
  the measured peak of resident block bytes
  (:func:`repro.storage.resident_gauge`) bounded by the budget, numerics
  matching the fully resident run to 1e-10, and an empty spill
  directory afterward — the acceptance criterion of the out-of-core PR;
* **crash reclamation** — a procpool worker dying mid-kernel on a
  spilled handle must not leak spill files: the orphaned output block is
  deleted, the pool is rebuilt, and the next kernel succeeds.
"""

import gc
import os
import sys

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.backends.blockkernels import KERNELS
from repro.backends.procpool import ProcessPoolBackend
from repro.session import TuckerSession
from repro.storage import MmapStore, resident_gauge
from repro.tensor.random import low_rank_tensor
from repro.tensor.ttm import ttm

DIMS, CORE, PROCS = (48, 40, 32), (6, 5, 4), 3

#: well below the tensor's 48*40*32*8 = 491520 bytes
BUDGET = 128 * 1024


@pytest.fixture(scope="module")
def big_tensor():
    return low_rank_tensor(DIMS, CORE, noise=0.1, seed=7)


@pytest.fixture(scope="module")
def reference(big_tensor):
    return TuckerSession(backend="sequential", storage="memory").run(
        big_tensor, CORE, planner="optimal", n_procs=PROCS, max_iters=2,
        tol=-np.inf,
    )


class TestBudgetGuard:
    """storage="auto" + a sub-tensor budget: spill, bound, agree, clean."""

    @pytest.mark.parametrize("name", ["sequential", "threaded", "procpool"])
    def test_over_budget_run_is_bounded_and_exact(
        self, name, big_tensor, reference, tmp_path
    ):
        assert big_tensor.nbytes > BUDGET  # the premise of the guard
        gauge = resident_gauge()
        gauge.reset()
        session = TuckerSession(
            backend=name,
            n_procs=PROCS,
            storage="auto",
            memory_budget=BUDGET,
            spill_dir=str(tmp_path),
        )
        try:
            res = session.run(
                big_tensor, CORE, planner="optimal", n_procs=PROCS,
                max_iters=2, tol=-np.inf,
            )
        finally:
            session.close()
        # auto selected the spill path...
        assert res.storage == "mmap"
        assert "over the" in res.storage_reason
        # ...the resident-block gauge stayed within the budget...
        assert 0 < gauge.peak <= BUDGET, (name, gauge.peak)
        assert gauge.current == 0
        # ...numerics match the fully resident reference to 1e-10...
        np.testing.assert_allclose(res.errors, reference.errors, atol=1e-10)
        np.testing.assert_allclose(
            res.decomposition.core, reference.decomposition.core, atol=1e-10
        )
        # ...and no spill file survived the run.
        assert list(tmp_path.iterdir()) == [], name

    def test_simcluster_over_budget_agrees_and_cleans(
        self, big_tensor, reference, tmp_path
    ):
        """The virtual cluster spills its per-rank bricks too."""
        session = TuckerSession(
            backend="simcluster",
            n_procs=PROCS,
            storage="auto",
            memory_budget=BUDGET,
            spill_dir=str(tmp_path),
        )
        res = session.run(
            big_tensor, CORE, planner="optimal", n_procs=PROCS,
            max_iters=2, tol=-np.inf,
        )
        assert res.storage == "mmap"
        np.testing.assert_allclose(res.errors, reference.errors, atol=1e-10)
        assert list(tmp_path.iterdir()) == []

    def test_under_budget_stays_resident(self, big_tensor, tmp_path):
        session = TuckerSession(
            backend="sequential",
            storage="auto",
            memory_budget=big_tensor.nbytes + 1,
            spill_dir=str(tmp_path),
        )
        res = session.run(
            big_tensor, CORE, planner="optimal", n_procs=PROCS, max_iters=1
        )
        assert res.storage == "memory"
        assert list(tmp_path.iterdir()) == []

    def test_spilled_run_cuts_multiple_blocks(self, big_tensor, tmp_path):
        """The budget genuinely forces multi-block kernels, not one slab."""
        from repro.backends.blockpar import (
            OC_LEASE_FACTOR,
            oc_block_slices,
        )

        per_block = max(1, BUDGET // OC_LEASE_FACTOR // PROCS)
        slices = oc_block_slices(
            DIMS, 0, big_tensor.dtype.itemsize, per_block, PROCS
        )
        assert len(slices) > PROCS

    def test_lazy_npy_input_never_fully_resident(self, tmp_path):
        """A .npy opened lazily spills zero copy bytes (external wrap)."""
        path = tmp_path / "big.npy"
        t = low_rank_tensor((32, 28, 24), (4, 4, 4), noise=0.1, seed=3)
        np.save(path, t)
        mapped = np.load(path, mmap_mode="r")
        gauge = resident_gauge()
        gauge.reset()
        session = TuckerSession(
            backend="threaded",
            n_procs=PROCS,
            storage="mmap",
            memory_budget=BUDGET,
            spill_dir=str(tmp_path / "spill"),
        )
        try:
            res = session.run(
                mapped, (4, 4, 4), planner="optimal", n_procs=PROCS,
                max_iters=1,
            )
        finally:
            session.close()
        ref = TuckerSession(backend="sequential").run(
            t, (4, 4, 4), planner="optimal", n_procs=PROCS, max_iters=1
        )
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=1e-10
        )
        # the input itself was mapped in place: every gauge lease is a
        # kernel block, all within budget; the source was never copied
        assert gauge.peak <= BUDGET


# --------------------------------------------------------------------- #
# crash injection: spilled kernels on a dying pool
# --------------------------------------------------------------------- #

pytest_crash = pytest.mark.skipif(
    sys.platform != "linux" or not os.path.isdir("/dev/shm"),
    reason="crash injection relies on Linux fork workers",
)


def _exit_hard(*args, **kwargs):  # pragma: no cover - runs in a worker
    os._exit(13)


@pytest_crash
class TestProcpoolSpillCrash:
    def test_worker_death_mid_kernel_reclaims_spill_files(
        self, tmp_path, monkeypatch
    ):
        tensor = np.random.default_rng(0).standard_normal((24, 20, 16))
        matrix = np.random.default_rng(1).standard_normal((6, 24))
        backend = ProcessPoolBackend(n_workers=2)
        store = MmapStore(root=str(tmp_path), max_block_bytes=8192)
        try:
            handle = backend.distribute(tensor, (), store=store)
            input_keys = set(store.keys())
            assert input_keys  # the spilled input block
            monkeypatch.setitem(KERNELS, "ttm", _exit_hard)
            with pytest.raises(BrokenProcessPool):
                backend.ttm(handle, matrix, 0)
            gc.collect()
            # the orphaned *output* block was reclaimed; the input stays
            assert set(store.keys()) == input_keys
            # the broken pool was dropped...
            assert backend._pool is None
            # ...and with the real task function back, the next kernel
            # transparently rebuilds the pool and is numerically right
            monkeypatch.undo()
            out = backend.ttm(handle, matrix, 0)
            np.testing.assert_allclose(
                np.asarray(backend.gather(out)),
                ttm(tensor, matrix, 0),
                atol=1e-12,
            )
        finally:
            backend.close()
            store.close()
        # the whole spill directory is gone with the store
        assert list(tmp_path.iterdir()) == []

    def test_session_run_crash_leaves_spill_root_clean(
        self, tmp_path, monkeypatch
    ):
        """End to end: a worker dying mid-run leaks no spill files."""
        tensor = np.random.default_rng(2).standard_normal((24, 20, 16))
        session = TuckerSession(
            backend="procpool",
            n_procs=2,
            storage="mmap",
            memory_budget=BUDGET,
            spill_dir=str(tmp_path),
        )
        monkeypatch.setitem(KERNELS, "gram", _exit_hard)
        try:
            with pytest.raises(BrokenProcessPool):
                session.run(
                    tensor, (4, 4, 3), planner="optimal", n_procs=2,
                    max_iters=1,
                )
        finally:
            session.close()
        gc.collect()
        assert list(tmp_path.iterdir()) == []
        # the session recovered: the same run now succeeds
        monkeypatch.undo()
        res = session.run(
            tensor, (4, 4, 3), planner="optimal", n_procs=2, max_iters=1
        )
        assert res.storage == "mmap"
        assert list(tmp_path.iterdir()) == []
