"""The Tucker decomposition container and its explicit error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.meta import TensorMeta
from repro.tensor.dense import relative_error
from repro.tensor.ttm import ttm_chain
from repro.util.dtypes import as_float


@dataclass
class TuckerDecomposition:
    """``{G; F_1, ..., F_N}``: core tensor plus one factor matrix per mode.

    ``factors[n]`` has shape ``(L_n, K_n)``; the recovered tensor is
    ``Z = G x_1 F_1 ... x_N F_N`` (paper section 2.2).
    """

    core: np.ndarray
    factors: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Floating inputs keep their precision; everything else promotes
        # to the float64 default.
        self.core = as_float(self.core)
        self.factors = [as_float(f) for f in self.factors]
        if len(self.factors) != self.core.ndim:
            raise ValueError(
                f"need {self.core.ndim} factors, got {len(self.factors)}"
            )
        for n, f in enumerate(self.factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} must be 2-D, got shape {f.shape}")
            if f.shape[1] != self.core.shape[n]:
                raise ValueError(
                    f"factor {n} has {f.shape[1]} columns but core length is "
                    f"{self.core.shape[n]}"
                )
            if f.shape[0] < f.shape[1]:
                raise ValueError(
                    f"factor {n} is wide ({f.shape}); expected L_n >= K_n"
                )

    # -- shapes ----------------------------------------------------------- #

    @property
    def dims(self) -> tuple[int, ...]:
        """Shape of the recovered tensor (L_1, ..., L_N)."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def core_dims(self) -> tuple[int, ...]:
        return tuple(self.core.shape)

    @property
    def meta(self) -> TensorMeta:
        return TensorMeta(dims=self.dims, core=self.core_dims)

    @property
    def compression_ratio(self) -> float:
        """Elements of the full tensor / elements stored by the model."""
        stored = self.core.size + sum(f.size for f in self.factors)
        return math.prod(self.dims) / stored

    # -- numerics ----------------------------------------------------------#

    def reconstruct(self) -> np.ndarray:
        """The recovered tensor ``Z`` (materializes L_1 x ... x L_N)."""
        return ttm_chain(self.core, self.factors, list(range(self.core.ndim)))

    def factor_orthonormality(self) -> float:
        """``max_n || F_n^T F_n - I ||_max`` — 0 for exactly orthonormal."""
        worst = 0.0
        for f in self.factors:
            gap = f.T @ f - np.eye(f.shape[1])
            worst = max(worst, float(np.abs(gap).max()))
        return worst

    def error_vs(self, tensor: np.ndarray) -> float:
        """Explicit normalized error ``||T - Z||_F / ||T||_F``."""
        return relative_error(tensor, self.reconstruct())
