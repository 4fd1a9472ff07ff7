"""Block-distributed dense tensors.

A :class:`DistTensor` is the engine's representation of the paper's data
layout (section 3): a dense tensor block-partitioned over a Cartesian
:class:`~repro.dist.grid_comm.ProcessorGrid`, rank ``r`` owning the brick at
its grid coordinates with near-even per-mode block ranges. Because the
cluster is simulated in-process, the per-rank blocks live in one dict; the
collectives of :class:`~repro.dist.comm.SimCluster` transform such dicts and
charge the exact element volumes to the stats ledger.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.dist.blocks import block_ranges
from repro.dist.grid_comm import ProcessorGrid
from repro.dist.comm import SimCluster
from repro.tensor.kernels import norm_block
from repro.util.dtypes import as_float


class DistTensor:
    """A dense tensor block-distributed over a processor grid.

    Parameters
    ----------
    grid:
        The processor grid; its dimensionality must match ``global_shape``.
    global_shape:
        Shape of the underlying global tensor.
    blocks:
        ``{rank: ndarray}`` with one entry per rank; each block's shape must
        equal the rank's brick shape under the near-even partitioning.
    """

    def __init__(
        self,
        grid: ProcessorGrid,
        global_shape: tuple[int, ...],
        blocks: Mapping[int, np.ndarray],
    ) -> None:
        global_shape = tuple(int(d) for d in global_shape)
        if len(global_shape) != grid.ndim:
            raise ValueError(
                f"tensor has {len(global_shape)} modes but grid "
                f"{grid.shape} has {grid.ndim}"
            )
        # Per-mode block ranges; raises on empty blocks (q_n > L_n).
        ranges = [
            block_ranges(length, extent)
            for length, extent in zip(global_shape, grid.shape)
        ]
        if set(blocks.keys()) != set(range(grid.n_procs)):
            raise ValueError(
                f"blocks must cover every rank 0..{grid.n_procs - 1}, got "
                f"{sorted(blocks.keys())}"
            )
        for rank in range(grid.n_procs):
            coords = grid.coords(rank)
            expected = tuple(
                ranges[m][c][1] - ranges[m][c][0] for m, c in enumerate(coords)
            )
            if tuple(blocks[rank].shape) != expected:
                raise ValueError(
                    f"rank {rank} block has shape {blocks[rank].shape}, "
                    f"expected {expected} at grid coords {coords}"
                )
        self.grid = grid
        self.global_shape = global_shape
        self._ranges = ranges
        self._blocks = {r: blocks[r] for r in range(grid.n_procs)}
        #: the MmapStore backing the bricks, if this tensor was spilled
        #: (set by :meth:`from_global`; None for in-memory tensors).
        self.store = None

    # ------------------------------------------------------------------ #
    # construction / assembly
    # ------------------------------------------------------------------ #

    @classmethod
    def from_global(
        cls,
        cluster: SimCluster,
        tensor: np.ndarray,
        grid_shape: tuple[int, ...],
        *,
        store=None,
    ) -> "DistTensor":
        """Scatter a global ndarray onto ``grid_shape`` (no volume charged).

        The paper does not charge the initial distribution of ``T``; neither
        does the engine. Floating dtypes are preserved (float32 stays
        float32); everything else promotes to float64.

        ``store``, when given, is a :class:`~repro.storage.MmapStore`
        the per-rank bricks are spilled through instead of living in RAM:
        each brick is written write-through (chunked, so only one chunk of
        one brick is resident while cutting a lazily mapped global
        tensor) and the block dict holds the store's memory-mapped views.
        The engine's kernels read them like any ndarray; the store owns
        the files and reclaims them on close.
        """
        tensor = as_float(tensor)
        grid = ProcessorGrid(cluster, tuple(grid_shape))
        if tensor.ndim != grid.ndim:
            raise ValueError(
                f"tensor has {tensor.ndim} modes but grid {grid.shape} has "
                f"{grid.ndim}"
            )
        ranges = [
            block_ranges(length, extent)
            for length, extent in zip(tensor.shape, grid.shape)
        ]
        blocks: dict[int, np.ndarray] = {}
        for rank in range(grid.n_procs):
            coords = grid.coords(rank)
            index = tuple(
                slice(*ranges[m][c]) for m, c in enumerate(coords)
            )
            if store is None:
                blocks[rank] = np.ascontiguousarray(tensor[index])
            else:
                key = store.next_key(f"rank{rank}")
                # Bricks are mutable per-rank working state, so they are
                # always spilled raw: an encoded block could not back the
                # writable mapping below, whatever the store's default.
                store.put(key, tensor[index], codec="raw")
                # Writable mapping: ranks own their bricks (collectives
                # may accumulate in place); mutations land in the spill
                # file, exactly like a local buffer would.
                blocks[rank] = store.writer(key)
        out = cls(grid, tensor.shape, blocks)
        out.store = store
        return out

    def to_global(self) -> np.ndarray:
        """Assemble and return the global ndarray (test/driver-side only)."""
        out = np.empty(self.global_shape, dtype=self.dtype)
        for rank in range(self.grid.n_procs):
            out[self.block_slices(rank)] = self._blocks[rank]
        return out

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def cluster(self) -> SimCluster:
        return self.grid.cluster

    @property
    def ndim(self) -> int:
        return len(self.global_shape)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the per-rank blocks."""
        return self._blocks[0].dtype

    @property
    def cardinality(self) -> int:
        """Total number of elements ``|T|`` (the paper's cardinality)."""
        return int(np.prod(self.global_shape, dtype=np.int64))

    @property
    def blocks(self) -> dict[int, np.ndarray]:
        """The per-rank block dict (shared, not copied)."""
        return self._blocks

    def block(self, rank: int) -> np.ndarray:
        return self._blocks[rank]

    def block_ranges_of(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Per-mode global ``(start, end)`` ranges of ``rank``'s brick."""
        coords = self.grid.coords(rank)
        return tuple(self._ranges[m][c] for m, c in enumerate(coords))

    def block_slices(self, rank: int) -> tuple[slice, ...]:
        return tuple(slice(a, b) for a, b in self.block_ranges_of(rank))

    def block_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.block_ranges_of(rank))

    # ------------------------------------------------------------------ #
    # distributed reductions
    # ------------------------------------------------------------------ #

    def fro_norm_sq(self, *, tag: str = "norm") -> float:
        """Squared Frobenius norm via local partials + world allreduce;
        each partial reads its (C-contiguous) brick in place."""
        partials = {
            r: np.array([norm_block(b.reshape(-1))])
            for r, b in self._blocks.items()
        }
        total = self.cluster.allreduce(self.grid.ranks, partials, tag=tag)
        return float(total[0][0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistTensor(shape={self.global_shape}, grid={self.grid.shape})"
        )
