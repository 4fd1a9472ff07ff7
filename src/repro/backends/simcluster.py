"""Virtual-cluster backend: the ``repro.dist`` engine behind the protocol.

Handles are :class:`~repro.dist.dtensor.DistTensor` instances; the ledger
is the wrapped :class:`~repro.mpi.comm.SimCluster`'s own
:class:`~repro.mpi.stats.StatsLedger` (shared, not copied), so exact
communication volumes keep landing where the benchmark harness and the
engine-vs-model reconciliation expect them.

This class only forwards: ``repro.dist`` chooses layouts, runs the
collectives and charges the ledger, and every rank's local work is the
same :mod:`repro.tensor.kernels` block function and
:func:`~repro.tensor.linalg.gram_factor` the local backends run — only
the map (ranks of a grid, not blocks of a pool) differs.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend
from repro.backends.errors import BackendUnavailableError
from repro.dist.dtensor import DistTensor
from repro.dist.gram import dist_leading_factor
from repro.dist.regrid import regrid as dist_regrid
from repro.dist.sketch import dist_cross_gram, dist_sketch
from repro.dist.ttm import dist_ttm
from repro.mpi.comm import SimCluster
from repro.mpi.machine import MachineModel


class SimClusterBackend(ExecutionBackend):
    """Distributed execution on an in-process virtual cluster.

    Parameters
    ----------
    cluster:
        The virtual cluster to run on; created from ``n_procs`` when absent.
    n_procs:
        World size for a freshly created cluster (ignored when ``cluster``
        is given).
    machine:
        Performance model for a freshly created cluster.
    """

    name = "simcluster"

    def __init__(
        self,
        cluster: SimCluster | None = None,
        *,
        n_procs: int | None = None,
        machine: MachineModel | None = None,
    ) -> None:
        super().__init__()
        if cluster is None:
            if n_procs is None:
                raise BackendUnavailableError(
                    "needs a cluster or n_procs", backend=self.name
                )
            cluster = SimCluster(n_procs, machine=machine)
        self.cluster = cluster
        # Share the cluster's ledger so stats() sees the engine's records.
        self.ledger = cluster.stats

    @property
    def default_procs(self) -> int:
        return self.cluster.n_procs

    # -- data placement -------------------------------------------------- #

    def _check_grid(self, grid: tuple[int, ...]) -> tuple[int, ...]:
        """A grid must tile exactly this cluster's world size."""
        grid = tuple(int(q) for q in grid)
        n = 1
        for q in grid:
            n *= q
        if n != self.cluster.n_procs:
            raise BackendUnavailableError(
                "grid does not tile the cluster",
                backend=self.name,
                config={"grid": grid, "n_procs": self.cluster.n_procs},
            )
        return grid

    def distribute(self, tensor: np.ndarray, grid, *, store=None) -> DistTensor:
        return DistTensor.from_global(
            self.cluster, tensor, self._check_grid(grid), store=store
        )

    def gather(self, handle: DistTensor) -> np.ndarray:
        return handle.to_global()

    def shape(self, handle: DistTensor) -> tuple[int, ...]:
        return handle.global_shape

    # -- kernels ---------------------------------------------------------- #

    def ttm(
        self, handle: DistTensor, matrix: np.ndarray, mode: int, *, tag="ttm"
    ) -> DistTensor:
        return dist_ttm(handle, matrix, mode, tag=tag)

    def leading_factor(
        self, handle: DistTensor, mode: int, k: int, *, tag: str = "svd"
    ) -> np.ndarray:
        return dist_leading_factor(handle, mode, k, tag=tag)

    def sketch(self, handle: DistTensor, specs, *, tag="sketch"):
        return dist_sketch(handle, specs, tag=tag)

    def cross_gram(
        self, handle: DistTensor, other: DistTensor, mode: int, *, tag="xgram"
    ) -> np.ndarray:
        return dist_cross_gram(handle, other, mode, tag=tag)

    def regrid(self, handle: DistTensor, grid, *, tag="regrid") -> DistTensor:
        return dist_regrid(handle, self._check_grid(grid), tag=tag)

    def fro_norm_sq(self, handle: DistTensor, *, tag="norm") -> float:
        return handle.fro_norm_sq(tag=tag)
