"""Dense tensor kernels: unfolding, TTM, Gram-based SVD, generators.

Tensors are plain ``numpy.ndarray`` objects (C-ordered, float64 by default);
this subpackage supplies the kernels on top of which the distributed engine
(:mod:`repro.dist`), the execution backends (:mod:`repro.backends`) and the
algorithm layer (:mod:`repro.hooi`) are built — :mod:`repro.tensor.kernels`
holds the per-block functions all executors share. It is a leaf: nothing
here imports :mod:`repro.backends` or :mod:`repro.dist`.

Mode indices are **0-based** throughout the code base (the paper uses
1-based modes).
"""

from repro.tensor.dense import cardinality, fro_norm, relative_error, num_fibers
from repro.tensor.unfold import unfold, fold
from repro.tensor.ttm import ttm, ttm_chain
from repro.tensor.linalg import (
    gram,
    leading_eigvecs,
    leading_left_singular_vectors,
    deterministic_sign,
)
from repro.tensor.random import (
    random_tensor,
    random_orthonormal,
    random_tucker,
    low_rank_tensor,
    separable_field_tensor,
)

__all__ = [
    "cardinality",
    "fro_norm",
    "relative_error",
    "num_fibers",
    "unfold",
    "fold",
    "ttm",
    "ttm_chain",
    "gram",
    "leading_eigvecs",
    "leading_left_singular_vectors",
    "deterministic_sign",
    "random_tensor",
    "random_orthonormal",
    "random_tucker",
    "low_rank_tensor",
    "separable_field_tensor",
]
