"""Distributed randomized sketches on the virtual cluster.

The communication story is the whole point of sketching on a cluster
(Minster, Li & Ballard): a mode-``n`` sketch ``W = Y x_{m != n} Omega_m``
is tiny — ``L_n x prod(s_m)`` — and every rank's *block* contribution to
it is independent, so the only collective is one world **allreduce of
the sketch itself**. The exact path's Gram step moves ``O(L_n^2)`` (or
regrids/allgathers slabs of ``Y``); the sketch moves ``2 |W| (p-1)``
elements and never rearranges the input. The ledger records exactly
that.

This module owns only those collectives and their ledger charges. A
rank's work is the shared-memory backends' block kernel:
:func:`~repro.tensor.kernels.sketch_block` on its brick (the test
matrices column-restricted to the brick's global ranges), and
:func:`~repro.tensor.kernels.xgram_block` on the full-fiber slabs
:func:`~repro.dist.gram.fiber_slabs` chooses. The allreduce (ascending
group-rank order, like every SimCluster reduction) plays the role of
the ascending-block sum — so distributed sketches agree with the
shared-memory ones to reduction-order rounding.
"""

from __future__ import annotations

import numpy as np

from repro.dist.dtensor import DistTensor
from repro.dist.gram import fiber_allreduce
from repro.tensor.kernels import sketch_block, sketch_flops, xgram_block
from repro.util.validation import check_mode

__all__ = ["dist_cross_gram", "dist_sketch"]


def dist_sketch(
    dtensor: DistTensor,
    specs,
    *,
    tag: str = "sketch",
) -> tuple[list[np.ndarray], float]:
    """All sketches of ``dtensor`` (replicated) plus its squared norm.

    One pass over every rank's resident block computes all the spec
    contributions and the norm partial; per spec, one world allreduce of
    the small sketch tensor (ledger tag ``{tag}:allreduce{i}``) — volume
    ``2 |W_i| (p-1)`` — replicates it, and one scalar allreduce
    (``{tag}:norm``) completes the norm. The input is never regridded,
    gathered, or re-read.
    """
    cluster = dtensor.cluster
    ranks = dtensor.grid.ranks
    specs = list(specs)
    results = {}
    rank_flops = []
    for rank in range(cluster.n_procs):
        block = dtensor.block(rank)
        results[rank] = sketch_block(
            block, specs, dtensor.global_shape, dtensor.block_ranges_of(rank)
        )
        # the norm partial's multiply-adds, then each spec's chain
        rank_flops.append(sum(
            (sketch_flops(block.shape, spec) for spec in specs),
            float(block.size),
        ))
    cluster.stats.add_compute(
        op="gemm",
        tag=f"{tag}:gemm",
        flops=float(sum(rank_flops)),
        seconds=cluster.machine.gemm_seconds(max(rank_flops)),
    )
    sketches = [
        cluster.allreduce(
            ranks, {r: res[0][i] for r, res in results.items()},
            tag=f"{tag}:allreduce{i}",
        )[0]
        for i in range(len(specs))
    ]
    norm_partials = {r: np.array([res[1]]) for r, res in results.items()}
    norm_total = cluster.allreduce(ranks, norm_partials, tag=f"{tag}:norm")
    return sketches, float(norm_total[0][0])


def dist_cross_gram(
    a: DistTensor,
    b: DistTensor,
    mode: int,
    *,
    tag: str = "xgram",
) -> np.ndarray:
    """``unfold(A, mode) @ unfold(B, mode).T`` replicated on every rank.

    The power-iteration primitive. Both tensors live on the same grid
    (``b`` is a TTM image of ``a``, which preserves the grid) and agree
    on every mode length except ``mode``, so one
    :func:`~repro.dist.gram.fiber_slabs` layout decision pairs their
    slabs; per-rank gemm partials then reduce with one world allreduce
    of the small ``L x w`` result.
    """
    mode = check_mode(mode, a.ndim)
    width = b.global_shape[mode]
    return fiber_allreduce(
        (a, b), mode, xgram_block, tag=tag, op="gemm", label="gemm",
        flops_per_column=a.global_shape[mode] * width,
    )
