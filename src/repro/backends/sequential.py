"""Single-process NumPy backend.

Handles are plain ndarrays; regridding is the identity. Every kernel
records its multiply-add count (and measured wall seconds) in the ledger so
sequential runs expose the same ``stats()`` surface as the virtual cluster
— with zero communication volume, as expected of one rank.

When a run spills (``distribute(..., store=...)``), handles become
:class:`~repro.storage.StoredTensor` block descriptions and every kernel
runs blocked through :mod:`repro.backends.blockkernels` on the serial
map: one budget-bounded block resident at a time, same ledger records,
same numerics to 1e-10. The in-memory forms below are the whole-tensor
reference every blocked path is compared against.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.backends.blockkernels import (
    BlockBackend,
    BlockSource,
    oc_distribute,
    run_cross_gram,
    run_gram,
    run_norm_sq,
    run_sketch,
    serial_map,
    ttm_in_process,
)
from repro.backends.blockpar import gram_evd_flops
from repro.backends.sketch import sketch_arrays
from repro.storage import StoredTensor
from repro.tensor.kernels import gram_block, sketch_flops, xgram_block
from repro.tensor.linalg import gram_factor
from repro.tensor.ttm import ttm


class SequentialBackend(BlockBackend):
    """The numpy reference path (one rank, shared memory)."""

    name = "sequential"

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

    def ttm(
        self, handle, matrix: np.ndarray, mode: int, *, tag="ttm"
    ) -> np.ndarray:
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            out = ttm_in_process(handle, matrix, mode, 1, serial_map)
        else:
            out = ttm(handle, matrix, mode)
        self._record("gemm", tag, matrix.shape[0] * handle.size, start)
        return out

    def leading_factor(
        self, handle, mode: int, k: int, *, tag: str = "svd", init=None
    ) -> np.ndarray:
        start = perf_counter()
        out = self._gram_out(handle, mode)
        if isinstance(handle, StoredTensor):
            g = run_gram(BlockSource.of(handle), mode, 1, serial_map, out)
        else:
            g = gram_block(handle, mode, out)
        factor = gram_factor(g, k, init)
        flops = gram_evd_flops(handle.shape[mode], handle.size)
        self._record("syrk", tag, flops, start)
        return factor

    def sketch(self, handle, specs, *, tag="sketch"):
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            sketches, norm_sq = run_sketch(
                BlockSource.of(handle), specs, 1, serial_map
            )
        else:
            sketches, norm_sq = sketch_arrays(handle, specs)
        flops = sum(sketch_flops(handle.shape, spec) for spec in specs)
        self._record("gemm", tag, float(flops) + float(handle.size), start)
        return sketches, norm_sq

    def cross_gram(self, handle, other, mode: int, *, tag="xgram"):
        start = perf_counter()
        if isinstance(handle, StoredTensor):
            g = run_cross_gram(
                BlockSource.of(handle), BlockSource.of(other), mode,
                1, serial_map,
            )
        else:
            g = xgram_block(handle, other, mode)
        flops = float(other.shape[mode]) * float(handle.size)
        self._record("gemm", tag, flops, start)
        return g

    def fro_norm_sq(self, handle, *, tag="norm") -> float:
        if isinstance(handle, StoredTensor):
            return run_norm_sq(BlockSource.of(handle), 1, serial_map)
        # sqrt-then-square matches the historical fro_norm()**2 path bit for
        # bit — it matters at the norm-identity cancellation floor.
        return float(np.linalg.norm(handle.ravel())) ** 2
