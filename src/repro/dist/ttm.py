"""Distributed TTM: local dgemm + reduce-scatter over mode fibers.

The paper's TTM engine (section 3): to compute ``Z = X x_n A`` with ``X``
block-distributed on grid ``g``, each rank multiplies the columns of ``A``
matching its mode-``n`` block range against its local brick's mode-``n``
unfolding — a partial product of the *full* output fiber segment — and the
``q_n`` ranks of each mode-``n`` fiber group reduce-scatter those partials,
leaving each rank its near-even share of the output mode. The output lives
on the same grid; the exchanged volume is exactly ``(q_n - 1) |Out(u)|``.
"""

from __future__ import annotations

import numpy as np

from repro.dist.blocks import block_sizes
from repro.dist.dtensor import DistTensor
from repro.tensor.kernels import ttm_block
from repro.util.dtypes import as_float
from repro.util.validation import check_mode


def dist_ttm(
    dtensor: DistTensor,
    matrix: np.ndarray,
    mode: int,
    *,
    tag: str = "ttm",
) -> DistTensor:
    """Multiply ``dtensor`` by ``matrix`` (shape ``K x L_mode``) along ``mode``.

    Returns a new :class:`DistTensor` on the same grid with the mode length
    replaced by ``K``. Records one ``gemm`` compute event (total multiply-adds
    ``K |X|``, critical-path seconds from the largest per-rank share) and one
    ``reduce_scatter`` comm event per mode-fiber group.
    """
    mode = check_mode(mode, dtensor.ndim)
    matrix = as_float(matrix)
    grid = dtensor.grid
    length = dtensor.global_shape[mode]
    if matrix.ndim != 2 or matrix.shape[1] != length:
        raise ValueError(
            f"matrix shape {matrix.shape} incompatible with mode {mode} of "
            f"length {length}"
        )
    k = matrix.shape[0]
    q = grid.shape[mode]
    if k < q:
        raise ValueError(
            f"output mode length K={k} is smaller than the grid extent "
            f"q_mode={q}: some ranks would own empty output blocks"
        )

    # Local partial products: A's column block against the local unfolding.
    cluster = dtensor.cluster
    partials: dict[int, np.ndarray] = {}
    max_rank_flops = 0
    for rank in range(grid.n_procs):
        lo, hi = dtensor.block_ranges_of(rank)[mode]
        block = dtensor.block(rank)
        partials[rank] = ttm_block(block, matrix[:, lo:hi], mode)
        max_rank_flops = max(max_rank_flops, k * block.size)
    total_flops = k * dtensor.cardinality
    cluster.stats.add_compute(
        op="gemm",
        tag=tag,
        flops=float(total_flops),
        seconds=cluster.machine.gemm_seconds(max_rank_flops),
    )

    # Reduce-scatter within every mode-n fiber group: rank with mode
    # coordinate c receives the c-th near-even chunk of the K output slices.
    out_counts = block_sizes(k, q)
    out_blocks: dict[int, np.ndarray] = {}
    for group in grid.mode_groups(mode):
        chunks = cluster.reduce_scatter(
            group,
            {r: partials[r] for r in group},
            out_counts,
            axis=mode,
            tag=tag,
        )
        out_blocks.update(chunks)

    out_shape = (
        dtensor.global_shape[:mode] + (k,) + dtensor.global_shape[mode + 1 :]
    )
    return DistTensor(grid, out_shape, out_blocks)
