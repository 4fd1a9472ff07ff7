"""Alpha-beta machine model for the virtual cluster.

Time for a collective over a group of ``p`` ranks moving ``b`` bytes along
the critical path is modeled as ``alpha * hops(p) + beta_op * b`` where
``beta_op`` is an operation-specific inverse bandwidth. Compute time is
``flops / rate`` with separate rates for BLAS-3 (dgemm/syrk) work and the
small sequential EVD.

The defaults (:meth:`MachineModel.bgq_like`) are calibrated to the paper's
platform: one rank corresponds to one BG/Q node (16 cores; the paper maps one
MPI rank per node and threads within). Peak node dgemm is ~204.8 GF/s; we use
a 70% efficiency figure. The key *qualitative* constant is
``beta_alltoall < beta_reduce_scatter``: the paper observes (section 6.2)
that regridding (all-to-all) is faster than TTM reduce-scatter for the same
volume, which is why communication-time gains (median 9.4x) exceed volume
gains (up to 6x). We encode that as a 3x bandwidth advantage by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """Performance parameters of the modeled distributed machine.

    Attributes
    ----------
    flop_rate:
        Effective multiply-add rate per rank for BLAS-3 kernels
        (multiply-adds / second; the paper counts one TTM multiply-add as one
        FLOP unit, cost ``K_n * |In(u)|``).
    evd_rate:
        Effective flop rate of the *sequential* eigendecomposition used for
        the SVD step (dsyevx in the paper).
    alpha:
        Per-message latency in seconds.
    beta_reduce_scatter / beta_alltoall / beta_allgather / beta_allreduce:
        Inverse bandwidths in seconds/byte for each collective family.
    bytes_per_element:
        Size of a tensor element (float64 = 8).
    """

    flop_rate: float = 1.4e11
    evd_rate: float = 5.0e9
    alpha: float = 5.0e-6
    beta_reduce_scatter: float = 1.0 / 1.5e9
    beta_alltoall: float = 1.0 / 4.5e9
    beta_allgather: float = 1.0 / 1.5e9
    beta_allreduce: float = 1.0 / 1.5e9
    bytes_per_element: int = 8

    def __post_init__(self) -> None:
        for name in (
            "flop_rate",
            "evd_rate",
            "beta_reduce_scatter",
            "beta_alltoall",
            "beta_allgather",
            "beta_allreduce",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #

    @classmethod
    def bgq_like(cls) -> "MachineModel":
        """BG/Q-flavoured defaults (one rank = one 16-core node)."""
        return cls()

    @classmethod
    def uniform(cls, bandwidth: float = 2.0e9, alpha: float = 0.0) -> "MachineModel":
        """All collectives share one bandwidth; handy for volume-only tests."""
        beta = 1.0 / bandwidth
        return cls(
            alpha=alpha,
            beta_reduce_scatter=beta,
            beta_alltoall=beta,
            beta_allgather=beta,
            beta_allreduce=beta,
        )

    # ------------------------------------------------------------------ #
    # compute-time formulas
    # ------------------------------------------------------------------ #

    def gemm_seconds(self, madds: float) -> float:
        """Time for ``madds`` BLAS-3 multiply-adds on one rank."""
        return float(madds) / self.flop_rate

    def evd_seconds(self, flops: float) -> float:
        """Time for a sequential eigendecomposition of the given flop count."""
        return float(flops) / self.evd_rate

    # ------------------------------------------------------------------ #
    # collective-time formulas (critical path)
    # ------------------------------------------------------------------ #

    def _bytes(self, elements: float) -> float:
        return float(elements) * self.bytes_per_element

    def reduce_scatter_seconds(self, p: int, max_rank_elements: float) -> float:
        """Ring reduce-scatter over ``p`` ranks.

        ``max_rank_elements`` is the largest per-rank send volume; a ring
        performs ``p - 1`` steps.
        """
        if p <= 1:
            return 0.0
        return self.alpha * (p - 1) + self._bytes(max_rank_elements) * (
            self.beta_reduce_scatter
        )

    def alltoall_seconds(self, p: int, max_rank_elements: float) -> float:
        """Personalized all-to-all over ``p`` ranks (pairwise exchange)."""
        if p <= 1:
            return 0.0
        return self.alpha * (p - 1) + self._bytes(max_rank_elements) * (
            self.beta_alltoall
        )

    def allgather_seconds(self, p: int, max_rank_elements: float) -> float:
        """Ring allgather; ``max_rank_elements`` is the largest receive size."""
        if p <= 1:
            return 0.0
        return self.alpha * (p - 1) + self._bytes(max_rank_elements) * (
            self.beta_allgather
        )

    def allreduce_seconds(self, p: int, elements: float) -> float:
        """Rabenseifner-style allreduce: reduce-scatter + allgather."""
        if p <= 1:
            return 0.0
        steps = 2 * math.ceil(math.log2(p))
        moved = 2.0 * elements * (p - 1) / p
        return self.alpha * steps + self._bytes(moved) * self.beta_allreduce
