"""Sequentially truncated HOSVD (Vannieuwenhoven et al.).

STHOSVD produces the initial decomposition HOOI then refines (paper
section 1). Processing modes one at a time, it computes the leading ``K_n``
left singular vectors of the *current* (already partially truncated)
tensor's mode-n unfolding, then immediately truncates along that mode —
so later modes see ever smaller tensors.

The paper remarks its ideas "can be recast and used for improving STHOSVD
as well": the obvious transfer is mode ordering, since a full truncation
pass is exactly one TTM chain. ``mode_order="optimal"`` applies the exact
chain-ordering comparator from :mod:`repro.core.ordering`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.hooi.decomposition import TuckerDecomposition
from repro.tensor.kernels import gram_block
from repro.tensor.linalg import gram_factor
from repro.tensor.ttm import ttm
from repro.util.dtypes import as_float
from repro.util.validation import check_core_dims


def _resolve_order(
    order: str | Sequence[int] | None, dims: tuple[int, ...], core: tuple[int, ...]
) -> list[int]:
    if order is None or order == "natural":
        return list(range(len(dims)))
    if order == "optimal":
        return optimal_chain_ordering(TensorMeta(dims=dims, core=core))
    order = [int(m) for m in order]
    if sorted(order) != list(range(len(dims))):
        raise ValueError(f"mode_order must be a permutation, got {order}")
    return order


def sthosvd(
    tensor: np.ndarray,
    core_dims: Sequence[int],
    *,
    mode_order: str | Sequence[int] | None = None,
    dtype=None,
) -> TuckerDecomposition:
    """Sequential STHOSVD of a dense tensor.

    Returns a :class:`TuckerDecomposition` with orthonormal factors. The
    factors use the Gram + EVD route of the paper's engine. ``dtype``
    overrides the working precision; by default float32 inputs stay
    float32 and everything else runs in float64.
    """
    tensor = as_float(tensor, dtype)
    core_dims = check_core_dims(core_dims, tensor.shape)
    order = _resolve_order(mode_order, tensor.shape, core_dims)
    factors: list[np.ndarray | None] = [None] * tensor.ndim
    current = tensor
    for mode in order:
        f = gram_factor(gram_block(current, mode), core_dims[mode])
        factors[mode] = f
        current = ttm(current, f.T, mode)
    return TuckerDecomposition(core=current, factors=list(factors))


def sthosvd_grid_plan(
    dims: Sequence[int],
    core_dims: Sequence[int],
    n_procs: int,
    *,
    mode_order: str | Sequence[int] | None = "optimal",
) -> tuple[list[int], list[tuple[int, ...]], int, int]:
    """Dynamic-gridding plan for a distributed STHOSVD pass.

    The paper's introduction notes its ideas "can be recast and used for
    improving STHOSVD as well": one STHOSVD pass is a single TTM chain
    (with an SVD before each step), so the section-4.4 machinery applies
    directly via the path DP — including a free choice of the initial
    layout of ``T``.

    Returns ``(mode order, grid per step, ttm_volume, regrid_volume)``.
    """
    from repro.core.dynamic_grid import optimal_path_scheme

    dims = tuple(int(d) for d in dims)
    core_dims = check_core_dims(core_dims, dims)
    meta = TensorMeta(dims=dims, core=core_dims)
    order = _resolve_order(mode_order, dims, core_dims)
    grids, ttm_vol, regrid_vol = optimal_path_scheme(
        meta, order, None, n_procs
    )
    return order, grids, ttm_vol, regrid_vol
