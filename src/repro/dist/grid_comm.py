"""Cartesian processor grids over a :class:`~repro.dist.comm.SimCluster`.

A :class:`ProcessorGrid` imposes grid coordinates on the cluster's ranks in
C (row-major) order — the analogue of ``MPI_Cart_create`` — and derives the
sub-communicator family the paper's engine needs (section 3): the
**mode-fiber groups** for mode ``n``, ranks that agree on every coordinate
except the ``n``-th. The distributed TTM reduce-scatters partial products
within each fiber group; the SVD's allgather fallback assembles full-length
fibers within them.
"""

from __future__ import annotations

import math

from repro.dist.comm import SimCluster
from repro.util.validation import check_mode


class ProcessorGrid:
    """A Cartesian rank layout for ``cluster`` with extents ``shape``.

    Raises ``ValueError`` unless every extent is positive and the number of
    grid cells equals the cluster's world size.
    """

    def __init__(self, cluster: SimCluster, shape: tuple[int, ...]) -> None:
        shape = tuple(int(q) for q in shape)
        if len(shape) == 0:
            raise ValueError("grid shape must have at least one mode")
        if any(q < 1 for q in shape):
            raise ValueError(f"grid extents must be positive, got {shape}")
        cells = math.prod(shape)
        if cells != cluster.n_procs:
            raise ValueError(
                f"grid {shape} has {cells} cells but the cluster has "
                f"{cluster.n_procs} ranks"
            )
        self.cluster = cluster
        self.shape = shape
        self._strides = tuple(
            math.prod(shape[d + 1 :]) for d in range(len(shape))
        )

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_procs(self) -> int:
        return self.cluster.n_procs

    @property
    def ranks(self) -> list[int]:
        """All world ranks, ascending (the world group)."""
        return list(range(self.n_procs))

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of ``rank`` (C order: last mode fastest)."""
        if not 0 <= rank < self.n_procs:
            raise ValueError(f"rank {rank} out of range [0, {self.n_procs})")
        out = []
        for stride, extent in zip(self._strides, self.shape):
            out.append((rank // stride) % extent)
        return tuple(out)

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Inverse of :meth:`coords`."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ndim:
            raise ValueError(
                f"coords {coords} have {len(coords)} entries, grid has "
                f"{self.ndim} modes"
            )
        for c, extent in zip(coords, self.shape):
            if not 0 <= c < extent:
                raise ValueError(f"coords {coords} out of grid {self.shape}")
        return sum(c * s for c, s in zip(coords, self._strides))

    # ------------------------------------------------------------------ #
    # sub-communicator groups
    # ------------------------------------------------------------------ #

    def mode_group(self, mode: int, rank: int) -> list[int]:
        """The mode-``mode`` fiber group containing ``rank``.

        Ranks are ordered by ascending mode coordinate, the order every
        collective over the group uses (fixing the reduction order).
        """
        mode = check_mode(mode, self.ndim)
        coords = list(self.coords(rank))
        group = []
        for c in range(self.shape[mode]):
            coords[mode] = c
            group.append(self.rank_of(tuple(coords)))
        return group

    def mode_groups(self, mode: int) -> list[list[int]]:
        """All mode-``mode`` fiber groups; together they partition the ranks.

        Groups are listed in C order of the fixed (non-``mode``)
        coordinates; each group is ordered by ascending mode coordinate.
        """
        mode = check_mode(mode, self.ndim)
        seen: dict[tuple[int, ...], list[int]] = {}
        for rank in range(self.n_procs):
            coords = self.coords(rank)
            key = coords[:mode] + coords[mode + 1 :]
            seen.setdefault(key, []).append(rank)
        # ranks ascend with the mode coordinate inside each group (C order),
        # and dict insertion order is C order of the fixed coordinates.
        return list(seen.values())

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorGrid(shape={self.shape}, n_procs={self.n_procs})"
