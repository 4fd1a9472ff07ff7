"""repro: a reproduction of "On Optimizing Distributed Tucker Decomposition
for Dense Tensors" (Chakaravarthy et al., IPDPS 2017).

The package implements the paper's full system:

* the **planner** — optimal TTM-trees (O(4^N) DP), optimal static grids and
  the optimal dynamic-gridding DP, plus every prior-work heuristic the paper
  benchmarks (chain/balanced trees, K-/h-orderings);
* the **engine** — a block-distributed dense-tensor runtime (distributed
  TTM via reduce-scatter, regridding via all-to-all, Gram+EVD SVD) running
  on a deterministic in-process virtual cluster with exact communication
  volume accounting and an alpha-beta time model (the paper's BG/Q is
  unavailable; volumes and FLOPs are machine-independent);
* the **algorithms** — HOOI (Figure 2) and STHOSVD, sequential and
  distributed;
* the **benchmark harness** regenerating every table and figure of the
  paper's evaluation (see benchmarks/ and EXPERIMENTS.md).

Quickstart (the session API: plan once, compile, run many tensors)::

    import numpy as np
    from repro import TuckerSession

    T = np.random.default_rng(0).standard_normal((40, 30, 20, 10))
    session = TuckerSession(backend="simcluster", n_procs=8)
    result = session.run(T, (8, 6, 5, 4))      # compiles + caches the plan
    print(result.error, result.backend, session.backend.stats())

Backends: ``"sequential"`` (numpy), ``"simcluster"`` (the virtual cluster
with exact volume accounting), ``"threaded"`` (shared-memory block
parallelism), ``"procpool"`` (multi-core process pool over shared-memory
segments) — or ``"auto"``, which scores the input's metadata against a
calibratable cost model and picks per tensor. The legacy one-shot
deprecation shims were removed in PR 14; ``TuckerSession.run`` /
``.hooi`` replace them.
"""

import logging as _logging

# Library logging hygiene: "repro" and its children emit through here; a
# NullHandler keeps us silent unless the application (or `repro -v`)
# attaches a real handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro._version import __version__
from repro.errors import ReproError
from repro.core import (
    TensorMeta,
    TTMTree,
    chain_tree,
    balanced_tree,
    optimal_tree,
    optimal_tree_cost,
    tree_cost,
    psi,
    valid_grids,
    optimal_static_grid,
    optimal_dynamic_scheme,
    GridScheme,
    Plan,
    Planner,
)
from repro.dist import DistTensor, MachineModel, SimCluster, dist_ttm, regrid
from repro.backends import (
    BackendUnavailableError,
    ExecutionBackend,
    ProcessPoolBackend,
    Selection,
    SequentialBackend,
    SimClusterBackend,
    ThreadedBackend,
    get_backend,
    select_backend,
)
from repro.session import (
    BatchFailure,
    BatchItem,
    BatchResult,
    CompiledPlan,
    TuckerResult,
    TuckerSession,
    compile_plan,
)
from repro.hooi import (
    TuckerDecomposition,
    sthosvd,
    sthosvd_grid_plan,
    hooi_reference_step,
    ModelReport,
    predict,
    select_plan,
)
from repro.tensor import (
    ttm,
    ttm_chain,
    unfold,
    fold,
    random_tensor,
    low_rank_tensor,
    separable_field_tensor,
)

__all__ = [
    "__version__",
    "ReproError",
    "TensorMeta",
    "TTMTree",
    "chain_tree",
    "balanced_tree",
    "optimal_tree",
    "optimal_tree_cost",
    "tree_cost",
    "psi",
    "valid_grids",
    "optimal_static_grid",
    "optimal_dynamic_scheme",
    "GridScheme",
    "Plan",
    "Planner",
    "MachineModel",
    "SimCluster",
    "DistTensor",
    "dist_ttm",
    "regrid",
    "ExecutionBackend",
    "BackendUnavailableError",
    "SequentialBackend",
    "SimClusterBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "Selection",
    "select_backend",
    "get_backend",
    "BatchFailure",
    "BatchItem",
    "BatchResult",
    "CompiledPlan",
    "TuckerSession",
    "compile_plan",
    "TuckerDecomposition",
    "sthosvd",
    "sthosvd_grid_plan",
    "hooi_reference_step",
    "ModelReport",
    "predict",
    "select_plan",
    "TuckerResult",
    "ttm",
    "ttm_chain",
    "unfold",
    "fold",
    "random_tensor",
    "low_rank_tensor",
    "separable_field_tensor",
]
