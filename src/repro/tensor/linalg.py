"""Gram-based SVD and deterministic sign conventions.

The paper's SVD step (section 5) computes the leading ``K_n`` left singular
vectors of the unfolding ``Z_(n)`` via the Gram matrix ``Z_(n) Z_(n)^T``
(dsyrk) followed by a sequential symmetric eigendecomposition (dsyevx) —
cheap because ``L_n <= 2000``. We mirror that exactly and add a direct
truncated-SVD backend for cross-checking.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


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
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            vectors[:, j] = -col
    return vectors


def leading_eigvecs(symmetric: np.ndarray, k: int) -> np.ndarray:
    """Leading ``k`` eigenvectors of a symmetric PSD matrix, descending order.

    Columns carry the deterministic sign convention. Uses LAPACK ``syevr``
    through :func:`scipy.linalg.eigh` with an index subset, the analogue of
    the paper's dsyevx call.
    """
    symmetric = np.asarray(symmetric)
    if symmetric.ndim != 2 or symmetric.shape[0] != symmetric.shape[1]:
        raise ValueError(f"need a square matrix, got shape {symmetric.shape}")
    n = symmetric.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    _, vecs = scipy.linalg.eigh(symmetric, subset_by_index=[n - k, n - 1])
    # eigh returns ascending eigenvalues; flip to descending.
    return deterministic_sign(vecs[:, ::-1])


def gram_factor(g: np.ndarray, k: int) -> np.ndarray:
    """Leading-``k`` eigenvectors of an accumulated Gram, symmetrized first.

    The one leading-``k`` factor routine: every backend, the virtual
    cluster, the host references and the sketch paths end here.
    """
    return leading_eigvecs((g + g.T) * 0.5, k)


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
