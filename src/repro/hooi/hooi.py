"""The HOOI invocation (paper Figure 2) and its tree-free reference.

A single invocation maps ``{G; F_1..F_N} -> {G~; F~_1..F~_N}``:

1. for every mode ``n``, a TTM chain over all modes but ``n`` (realized via
   the plan's TTM-tree so chains share work) followed by the Gram-SVD of the
   mode-n unfolding — note all chains consume the *input* factors, exactly
   as Figure 2 specifies (tree reuse requires it);
2. the new core ``G~ = T x_1 F~_1^T ... x_N F~_N^T``.

The engine runs it as one :func:`~repro.backends.schedule.run_sweep` —
the plan's compiled tree, then its core chain — which
:meth:`repro.session.TuckerSession.hooi` iterates to convergence (one
invocation is ``hooi(t, init, plan=plan, max_iters=1, tol=0.0)``). This
module holds ``hooi_reference_step``, the tree-free naive implementation
(N independent chains) used as the test oracle; it also offers the classic
Gauss-Seidel update (immediately reusing freshly computed factors), which
trees cannot express — comparing the two is one of the repo's extension
experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hooi.decomposition import TuckerDecomposition
from repro.tensor.linalg import leading_left_singular_vectors
from repro.tensor.ttm import ttm_chain
from repro.tensor.unfold import unfold
from repro.util.dtypes import as_float


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
