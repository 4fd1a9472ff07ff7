"""Gram-based SVD and deterministic sign conventions.

The paper's SVD step (section 5) computes the leading ``K_n`` left singular
vectors of the unfolding ``Z_(n)`` via the Gram matrix ``Z_(n) Z_(n)^T``
(dsyrk) followed by a sequential symmetric eigendecomposition (dsyevx) —
cheap because ``L_n <= 2000``. :func:`gram_factor` has two routes. The
exact route is that subset EVD. A HOOI update also passes the previous
sweep's factor, and the warm route runs at most three block subspace steps
from it; their Ritz basis is returned only when three checks hold (a finite
Gram, an EVD-sized residual, and a gap to the rest of the spectrum, see
:func:`_warm_factor`), else the exact route runs. A direct truncated SVD is
kept for cross-checking.

Both routes' LAPACK calls (the EVDs and the warm route's QR) go through
:mod:`repro.tensor.lapack`, which releases the GIL for each call and
returns scipy's bits, so threads that factor at once (two serve workers,
say) overlap instead of taking turns.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.tensor import lapack


def gram(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix @ matrix.T`` symmetrized (syrk-style).

    Symmetrization guards against round-off asymmetry so ``eigh`` sees an
    exactly symmetric input.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    g = matrix @ matrix.T
    return (g + g.T) * 0.5


def deterministic_sign(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's sign so its largest-magnitude entry is positive.

    Eigen/singular vectors are defined only up to sign; fixing it makes the
    sequential and distributed paths bit-comparable and test assertions
    simple. Ties (same magnitude) resolve to the first occurrence.
    """
    vectors = np.array(vectors, copy=True)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    rows = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[rows, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def leading_eigvecs(symmetric: np.ndarray, k: int) -> np.ndarray:
    """Leading ``k`` eigenvectors of a symmetric PSD matrix, descending order.

    Columns carry the deterministic sign convention. Uses LAPACK ``syevr``
    with an index subset (:func:`repro.tensor.lapack.eigh`), the analogue
    of the paper's dsyevx call. A non-finite entry raises ``ValueError``.
    """
    symmetric = np.asarray(symmetric)
    if symmetric.ndim != 2 or symmetric.shape[0] != symmetric.shape[1]:
        raise ValueError(f"need a square matrix, got shape {symmetric.shape}")
    n = symmetric.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not np.isfinite(symmetric).all():
        raise ValueError("array must not contain infs or NaNs")
    _, vecs = lapack.eigh(symmetric, k)
    # eigh returns ascending eigenvalues; flip to descending.
    return deterministic_sign(vecs[:, ::-1])


def gram_factor(
    g: np.ndarray, k: int, init: np.ndarray | None = None
) -> np.ndarray:
    """Leading-``k`` eigenvectors of an accumulated Gram, symmetrized first.

    The one leading-``k`` factor routine: every backend, the virtual
    cluster, the host references and the sketch paths end here.

    With an ``init`` (a HOOI update's factor from the previous sweep) up to
    :data:`SUBSPACE_STEPS` block subspace steps start from it, and their
    Ritz basis is returned when it is certified (see :func:`_warm_factor`).
    Otherwise, and always without an ``init``, the subset EVD of
    :func:`leading_eigvecs` runs.
    """
    g = (g + g.T) * 0.5
    if init is not None:
        warm = _warm_factor(g, k, init)
        if warm is not None:
            return warm
    return leading_eigvecs(g, k)


SUBSPACE_STEPS = 3


def _warm_factor(
    g: np.ndarray, k: int, init: np.ndarray
) -> np.ndarray | None:
    """Block subspace iteration on ``g`` from ``init``, or ``None``.

    Each step is ``Q = qr(G Q)`` then Rayleigh–Ritz on ``Q^T G Q``, with
    Ritz values ``θ_1 >= ... >= θ_k``. The Ritz basis is accepted only when

    (i) ``g`` is finite (an infinite entry would otherwise make the
        products warn before the EVD raises its own error);
    (ii) ``||G Q - Q Θ||_F <= tol = 64 ε θ_1``, the backward error the EVD
         itself attains;
    (iii) ``||G - Q Θ Q^T||_F + 2 tol < θ_k``. Its square is
          ``||G||_F² - ||Θ||_F²`` computed without cancelling, and it
          bounds every eigenvalue outside ``span(Q)``, so the span is the
          leading one. The margin sends a ``θ_k`` at rounding level (rank
          below ``k``) to the EVD.

    A wrong-shape ``init`` or ``k`` outside ``[1, n)`` is not tried.
    """
    n = g.shape[0]
    if np.shape(init) != (n, k) or not 0 < k < n or not np.isfinite(g).all():
        return None
    eps = np.finfo(g.dtype).eps
    gq = g @ np.asarray(init, dtype=g.dtype)
    for _ in range(SUBSPACE_STEPS):
        q = lapack.qr_economic(gq)
        gq = g @ q
        theta, v = lapack.eigh(q.T @ gq)
        theta, v = theta[::-1], v[:, ::-1]
        q, gq = q @ v, gq @ v
        tol = 64 * eps * theta[0]
        if np.linalg.norm(gq - q * theta) <= tol and (
            np.linalg.norm(g - (q * theta) @ q.T) + 2 * tol < theta[-1]
        ):
            return deterministic_sign(q)
    return None


def leading_left_singular_vectors(
    matrix: np.ndarray, k: int, *, method: str = "gram"
) -> np.ndarray:
    """Leading ``k`` left singular vectors of ``matrix``.

    ``method="gram"`` is the paper's Gram+EVD route; ``method="svd"`` calls a
    thin LAPACK SVD directly (the paper's conclusion suggests a distributed
    SVD solver as future work — this is the sequential stand-in used for
    validation). Both return ``matrix.shape[0] x k`` with deterministic signs.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if method == "gram":
        return gram_factor(matrix @ matrix.T, k)
    if method == "svd":
        if not 1 <= k <= matrix.shape[0]:
            raise ValueError(f"k must be in [1, {matrix.shape[0]}], got {k}")
        u, _, _ = scipy.linalg.svd(matrix, full_matrices=False)
        return deterministic_sign(u[:, :k])
    raise ValueError(f"unknown method {method!r}; expected 'gram' or 'svd'")
