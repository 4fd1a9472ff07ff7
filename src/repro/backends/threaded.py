"""Shared-memory threaded backend — the first real-parallel path.

Handles are plain ndarrays living in shared memory (or
:class:`~repro.storage.StoredTensor` block descriptions when a run
spills); every kernel is the shared block kernel of
:mod:`repro.backends.blockkernels`, cut over the same near-even block
ranges the distributed engine uses (:func:`repro.dist.blocks
.block_ranges`) and mapped over a thread pool. NumPy releases the GIL
inside BLAS, so the per-block dgemms genuinely overlap. Determinism is
preserved by construction:

* TTM blocks write disjoint slices of a preallocated output (no reduction
  across threads at all);
* Gram partials and norm partials are summed in ascending block order, the
  same fixed-order discipline the virtual cluster uses.

Regridding is the identity (one address space) and no communication volume
is ever recorded — the honest ledger of a shared-memory machine.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.backends.blockkernels import (
    BlockSource,
    PoolBackend,
    oc_distribute,
    run_block,
    run_cross_gram,
    run_gram,
    run_norm_sq,
    run_sketch,
    ttm_in_process,
)
from repro.backends.blockpar import gram_evd_flops
from repro.storage import StoredTensor
from repro.tensor.kernels import sketch_flops
from repro.tensor.linalg import gram_factor


class ThreadedBackend(PoolBackend):
    """Block-parallel execution over a thread pool of ``n_workers``."""

    name = "threaded"

    def _start_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-block"
        )

    def _map(self, tasks) -> list:
        """Block tasks over the pool, results in task (ascending) order."""
        return list(self._executor().map(run_block, *zip(*tasks)))

    # -- data placement -------------------------------------------------- #

    def distribute(self, tensor: np.ndarray, grid, *, store=None):
        if store is not None:
            return oc_distribute(tensor, store)
        return np.ascontiguousarray(tensor)

    def gather(self, handle) -> np.ndarray:
        if isinstance(handle, StoredTensor):
            return handle.open()
        return handle

    # -- kernels ---------------------------------------------------------- #

    def ttm(self, handle, matrix: np.ndarray, mode: int, *, tag="ttm"):
        start = perf_counter()
        out = ttm_in_process(
            handle, matrix, mode, self.n_workers, self._map
        )
        self._record("gemm", tag, matrix.shape[0] * handle.size, start)
        return out

    def leading_factor(
        self, handle, mode: int, k: int, *, tag: str = "svd", init=None
    ) -> np.ndarray:
        start = perf_counter()
        g = run_gram(
            BlockSource.of(handle), mode, self.n_workers, self._map,
            self._gram_out(handle, mode),
        )
        factor = gram_factor(g, k, init)
        flops = gram_evd_flops(handle.shape[mode], handle.size)
        self._record("syrk", tag, flops, start)
        return factor

    def sketch(self, handle, specs, *, tag="sketch"):
        start = perf_counter()
        sketches, norm_sq = run_sketch(
            BlockSource.of(handle), specs, self.n_workers, self._map
        )
        flops = sum(sketch_flops(handle.shape, spec) for spec in specs)
        self._record("gemm", tag, float(flops) + float(handle.size), start)
        return sketches, norm_sq

    def cross_gram(self, handle, other, mode: int, *, tag="xgram"):
        start = perf_counter()
        g = run_cross_gram(
            BlockSource.of(handle), BlockSource.of(other), mode,
            self.n_workers, self._map,
        )
        flops = float(other.shape[mode]) * float(handle.size)
        self._record("gemm", tag, flops, start)
        return g

    def fro_norm_sq(self, handle, *, tag="norm") -> float:
        return run_norm_sq(
            BlockSource.of(handle), self.n_workers, self._map
        )
