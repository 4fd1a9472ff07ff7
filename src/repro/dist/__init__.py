"""The distributed-tensor engine (paper sections 3-5).

``repro.dist`` is the layer between the planner (:mod:`repro.core`) and the
algorithms (:mod:`repro.hooi`): dense tensors block-distributed over
Cartesian processor grids on an in-process virtual cluster (the paper's
BG/Q and MPI are unavailable; its FLOP and volume metrics are exact here),
with

* :mod:`repro.dist.comm` — :class:`SimCluster`, the collectives;
* :mod:`repro.dist.stats` — :class:`StatsLedger`, their record;
* :mod:`repro.dist.machine` — :class:`MachineModel`, the alpha-beta time
  model;
* :mod:`repro.dist.blocks` — the near-even 1-D partitioning closed forms;
* :mod:`repro.dist.grid_comm` — :class:`ProcessorGrid` rank/coordinate maps
  and mode-fiber / mode-slice sub-communicator groups;
* :mod:`repro.dist.dtensor` — :class:`DistTensor` scatter/gather and
  distributed norms;
* :mod:`repro.dist.ttm` — :func:`dist_ttm`, the local-dgemm +
  reduce-scatter TTM with the paper's exact ``(q_n - 1) |Out(u)|`` volume;
* :mod:`repro.dist.gram` — :func:`dist_gram` / :func:`dist_leading_factor`,
  the Gram+EVD SVD step, and the full-fiber slab choice it shares with
  the cross-Gram;
* :mod:`repro.dist.sketch` — the randomized sketches and cross-Gram;
* :mod:`repro.dist.regrid` — :func:`regrid`, the all-to-all grid move of
  dynamic gridding.

The engine owns layouts, collectives and ledger charges only. What a
rank computes on its brick or slab is the shared-memory backends' own
code: the block functions of :mod:`repro.tensor.kernels` and
:func:`repro.tensor.linalg.gram_factor`, so a kernel change reaches the
simulator and the backends it validates alike. Neither of those imports
:mod:`repro.backends` — ``import repro`` loads this package first.

Every collective charges its exact element volume to the cluster's
:class:`~repro.dist.stats.StatsLedger`, which is what lets the
engine-vs-model benchmarks reconcile executed runs against the planner's
closed-form cost model.
"""

from repro.dist.machine import MachineModel
from repro.dist.stats import StatsLedger
from repro.dist.comm import SimCluster
from repro.dist.blocks import block_range, block_ranges, block_sizes
from repro.dist.dtensor import DistTensor
from repro.dist.gram import dist_gram, dist_leading_factor
from repro.dist.grid_comm import ProcessorGrid
from repro.dist.regrid import regrid
from repro.dist.ttm import dist_ttm

__all__ = [
    "MachineModel",
    "StatsLedger",
    "SimCluster",
    "block_range",
    "block_ranges",
    "block_sizes",
    "DistTensor",
    "ProcessorGrid",
    "dist_gram",
    "dist_leading_factor",
    "dist_ttm",
    "regrid",
]
