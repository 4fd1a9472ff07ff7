"""Distributed Gram matrices and the Gram+EVD factor extraction.

The paper's SVD step (section 5) forms the Gram matrix of the mode-``n``
unfolding, ``G = Z_(n) Z_(n)^T``, then solves a *sequential* symmetric EVD —
``G`` is only ``L_n x L_n`` and ``L_n <= 2000``. Forming ``G`` needs
full-length mode-``n`` fibers on each rank:

* if the grid already has ``q_n = 1``, fibers are whole; each rank adds its
  ``L x L`` partial ``U U^T`` from its local column slab and a world
  allreduce completes ``G``;
* if ``q_n > 1`` but some grid of the same processor count with ``q_n = 1``
  fits the tensor, the engine regrids onto the deterministic target chosen by
  :func:`repro.core.grids.svd_regrid_target` — the same closed form the cost
  model charges — for at most ``|Z|`` alltoallv volume;
* otherwise it allgathers fiber segments within each mode-fiber group
  (volume ``(q_n - 1) |Z|``) and lets one representative per group
  contribute the slab's partial.

The factor is then the leading-``k`` eigenvector matrix of ``G``, computed
redundantly on every rank from the allreduced ``G`` (so no broadcast is
needed).

This module owns only the layout choice (:func:`fiber_slabs`, which the
cross-Gram of :mod:`repro.dist.sketch` shares), the collectives and the
ledger charges. The per-rank arithmetic is the backends' own:
:func:`~repro.tensor.kernels.gram_block` (or
:func:`~repro.tensor.kernels.xgram_block`) on each slab, and
:func:`~repro.tensor.linalg.gram_factor` for the factor.
"""

from __future__ import annotations

import numpy as np

from repro.core.grids import svd_regrid_target
from repro.dist.dtensor import DistTensor
from repro.dist.regrid import regrid
from repro.tensor.kernels import gram_block
from repro.tensor.linalg import gram_factor
from repro.util.validation import check_mode


def fiber_slabs(
    tensors, mode: int, *, tag: str
) -> list[dict[int, np.ndarray]]:
    """``{rank: slab}`` per tensor, every slab holding whole mode fibers.

    One layout decision serves all ``tensors``, so their slabs pair on
    identical non-mode index sets: in place when ``q_mode == 1``, else a
    regrid of each onto the deterministic ``q_mode = 1`` target computed
    from the first (tensors that differ from it only along ``mode`` fit
    it too), else an allgather of fiber segments within each mode-fiber
    group — where every rank of a group ends up with the same slab, so
    only the group's first rank keeps it.
    """
    first = tensors[0]
    grid = first.grid
    if grid.shape[mode] == 1:
        return [dict(t.blocks) for t in tensors]
    target = svd_regrid_target(grid.shape, first.global_shape, mode)
    if target is not None:
        return [
            dict(regrid(t, target, tag=f"{tag}:regrid").blocks)
            for t in tensors
        ]
    out = []
    for t in tensors:
        slabs: dict[int, np.ndarray] = {}
        for group in grid.mode_groups(mode):
            gathered = t.cluster.allgather(
                group,
                {r: t.block(r) for r in group},
                axis=mode,
                tag=f"{tag}:allgather",
            )
            slabs[group[0]] = gathered[group[0]]
        out.append(slabs)
    return out


def fiber_allreduce(
    tensors, mode: int, kernel, *, tag: str, op: str, label: str,
    flops_per_column: int,
) -> np.ndarray:
    """``kernel(*slabs, mode)`` summed over ranks, replicated everywhere.

    The slabs come from :func:`fiber_slabs`; ranks without one contribute
    zeros. The local work is one ``op`` compute record tagged
    ``{tag}:{label}`` (``flops_per_column`` multiply-adds per slab
    column), the sum one world allreduce tagged ``{tag}:allreduce``.
    """
    first = tensors[0]
    cluster = first.cluster
    shape = (first.global_shape[mode], tensors[-1].global_shape[mode])
    slabs = fiber_slabs(tensors, mode, tag=tag)
    partials: dict[int, np.ndarray] = {}
    rank_flops = [0]
    for rank in range(cluster.n_procs):
        pieces = [s.get(rank) for s in slabs]
        if pieces[0] is None:
            partials[rank] = np.zeros(shape, dtype=first.dtype)
            continue
        partials[rank] = kernel(*pieces, mode)
        rank_flops.append(flops_per_column * (pieces[0].size // shape[0]))
    cluster.stats.add_compute(
        op=op,
        tag=f"{tag}:{label}",
        flops=float(sum(rank_flops)),
        seconds=cluster.machine.gemm_seconds(max(rank_flops)),
    )
    ranks = first.grid.ranks
    return cluster.allreduce(ranks, partials, tag=f"{tag}:allreduce")[0]


def dist_gram(
    dtensor: DistTensor,
    mode: int,
    *,
    tag: str = "gram",
) -> np.ndarray:
    """Gram matrix of the mode-``mode`` unfolding, replicated on every rank.

    Communication lands in the ledger under ``{tag}:regrid`` /
    ``{tag}:allgather`` (layout fixing) and ``{tag}:allreduce`` (the world
    reduction of the ``L x L`` partials); the local syrk is one ``syrk``
    compute record. The sum is returned as reduced; :func:`gram_factor`
    symmetrizes it.
    """
    mode = check_mode(mode, dtensor.ndim)
    length = dtensor.global_shape[mode]
    return fiber_allreduce(
        (dtensor,), mode, gram_block, tag=tag, op="syrk", label="gram",
        flops_per_column=length * (length + 1) // 2,
    )


def dist_leading_factor(
    dtensor: DistTensor,
    mode: int,
    k: int,
    *,
    tag: str = "svd",
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Leading-``k`` factor of the mode-``mode`` unfolding (replicated).

    The EVD runs redundantly on every rank from the replicated Gram; the
    ledger records it once (its critical-path time — the redundant copies
    overlap perfectly). ``init`` is passed on to :func:`gram_factor`, so a
    HOOI update may take its warm route; the ledger charges the modelled
    EVD on either route.
    """
    g = dist_gram(dtensor, mode, tag=tag)
    length = g.shape[0]
    dtensor.cluster.record_compute(
        "evd", f"{tag}:evd", flops=4.0 * length**3 / 3.0
    )
    return gram_factor(g, k, init)
