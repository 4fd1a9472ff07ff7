"""HOOI single invocations (paper Figure 2).

A single invocation maps ``{G; F_1..F_N} -> {G~; F~_1..F~_N}``:

1. for every mode ``n``, a TTM chain over all modes but ``n`` (realized via
   the plan's TTM-tree so chains share work) followed by the Gram-SVD of the
   mode-n unfolding — note all chains consume the *input* factors, exactly
   as Figure 2 specifies (tree reuse requires it);
2. the new core ``G~ = T x_1 F~_1^T ... x_N F~_N^T``.

``hooi_step_sequential`` / ``hooi_step_distributed`` are the
single-invocation engine entry points: they compile the plan's tree and
core chain with :mod:`repro.backends.schedule` and replay them — one
:func:`~repro.backends.schedule.run_sweep`, the very sweep
:meth:`repro.session.TuckerSession.hooi` iterates to convergence — on a
sequential or simcluster backend. ``hooi_reference_step`` is the tree-free
naive implementation (N independent chains) used as the test oracle; it
also offers the classic Gauss-Seidel update (immediately reusing freshly
computed factors), which trees cannot express — comparing the two is one
of the repo's extension experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backends import (
    SequentialBackend,
    SimClusterBackend,
    check_factors,
    compile_core_steps,
    compile_tree_steps,
    run_sweep,
)
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Plan
from repro.dist.dtensor import DistTensor
from repro.hooi.decomposition import TuckerDecomposition
from repro.tensor.linalg import leading_left_singular_vectors
from repro.tensor.ttm import ttm_chain
from repro.tensor.unfold import unfold
from repro.util.dtypes import as_float


# --------------------------------------------------------------------- #
# single invocations (engine-level)
# --------------------------------------------------------------------- #


def hooi_step_sequential(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    plan: Plan,
) -> TuckerDecomposition:
    """One HOOI invocation (Figure 2), sequentially, per ``plan``'s tree."""
    meta = plan.meta
    tensor = as_float(tensor)
    new_factors, core = run_sweep(
        SequentialBackend(),
        tensor,
        check_factors(factors, meta, dtype=tensor.dtype),
        compile_tree_steps(plan.tree, meta),
        compile_core_steps(optimal_chain_ordering(meta)),
    )
    return TuckerDecomposition(core=core, factors=new_factors)


def hooi_step_distributed(
    dtensor: DistTensor,
    factors: Sequence[np.ndarray],
    plan: Plan,
    *,
    tag: str = "hooi",
) -> tuple[TuckerDecomposition, DistTensor]:
    """One HOOI invocation on the engine.

    Returns the new decomposition (with the core assembled — it is small)
    plus the distributed core. ``dtensor`` must be distributed on
    ``plan.initial_grid``. Factor inputs and outputs are replicated (they
    are small; the paper keeps a copy per processor). Communication lands
    in the cluster ledger with tags ``{tag}:ttm...``, ``{tag}:regrid...``,
    ``{tag}:svd...`` and ``{tag}:core:...``; the core chain follows the
    plan's ``core_order`` / ``core_scheme`` (the dynamic algorithm's
    path-DP gridding) when it has them.
    """
    meta = plan.meta
    factors = check_factors(factors, meta)
    if dtensor.global_shape != meta.dims:
        raise ValueError(
            f"tensor shape {dtensor.global_shape} != plan dims {meta.dims}"
        )
    if dtensor.grid.shape != plan.initial_grid:
        raise ValueError(
            f"tensor grid {dtensor.grid.shape} != plan initial grid "
            f"{plan.initial_grid}; distribute (or regrid) first"
        )
    new_factors, core_dist = run_sweep(
        SimClusterBackend(dtensor.cluster),
        dtensor,
        factors,
        compile_tree_steps(plan.tree, meta, scheme=plan.scheme),
        compile_core_steps(
            list(plan.core_order) or optimal_chain_ordering(meta),
            plan.core_scheme or None,
        ),
        tag=tag,
    )
    dec = TuckerDecomposition(
        core=core_dist.to_global(), factors=new_factors
    )
    return dec, core_dist


# --------------------------------------------------------------------- #
# naive reference (test oracle + Gauss-Seidel extension)
# --------------------------------------------------------------------- #


def hooi_reference_step(
    tensor: np.ndarray,
    factors: Sequence[np.ndarray],
    core_dims: Sequence[int],
    *,
    update: str = "jacobi",
) -> TuckerDecomposition:
    """Tree-free HOOI invocation: N independent full chains.

    ``update="jacobi"`` matches the paper's Figure 2 (all chains read the
    input factors — what TTM-trees implement). ``update="gauss-seidel"`` is
    the classic alternating variant where mode ``n``'s chain already uses
    the new ``F~_j`` for ``j < n``; it cannot be expressed as a TTM-tree but
    converges at least as fast per sweep.
    """
    if update not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"update must be jacobi|gauss-seidel, got {update!r}")
    tensor = as_float(tensor)
    n = tensor.ndim
    core_dims = tuple(int(k) for k in core_dims)
    current = [as_float(f, tensor.dtype) for f in factors]
    new: list[np.ndarray] = list(current)
    for mode in range(n):
        use = new if update == "gauss-seidel" else current
        z = ttm_chain(tensor, use, list(range(n)), transpose=True, skip=mode)
        f = leading_left_singular_vectors(unfold(z, mode), core_dims[mode])
        new = list(new)
        new[mode] = f
    core = ttm_chain(tensor, new, list(range(n)), transpose=True)
    return TuckerDecomposition(core=core, factors=new)
