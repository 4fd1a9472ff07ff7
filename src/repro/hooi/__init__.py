"""HOOI, STHOSVD and the cost model.

* :mod:`repro.hooi.decomposition` — the ``{G; F_1..F_N}`` container, error
  metrics (explicit and the orthonormal-factor norm identity).
* :mod:`repro.hooi.sthosvd` — sequentially truncated HOSVD, the paper's
  initial-decomposition method, in sequential and distributed forms.
* :mod:`repro.hooi.hooi` — single HOOI invocations (Figure 2 of the paper)
  on the sequential and simcluster backends, plus a tree-free naive
  reference. The iterate-to-convergence drivers and the one-shot /
  tree-executor shims were removed in PR 14: use
  :class:`repro.session.TuckerSession` and :mod:`repro.backends.schedule`.
* :mod:`repro.hooi.model` — metadata-only predictions of load, volume and
  alpha-beta time for a plan; powers the large benchmark sweeps.
"""

from repro.hooi.decomposition import TuckerDecomposition
from repro.hooi.sthosvd import sthosvd, dist_sthosvd, sthosvd_grid_plan
from repro.hooi.hooi import (
    hooi_step_sequential,
    hooi_step_distributed,
    hooi_reference_step,
)
from repro.hooi.model import ModelReport, predict
from repro.hooi.portfolio import PortfolioChoice, select_plan

__all__ = [
    "TuckerDecomposition",
    "sthosvd",
    "dist_sthosvd",
    "sthosvd_grid_plan",
    "PortfolioChoice",
    "select_plan",
    "hooi_step_sequential",
    "hooi_step_distributed",
    "hooi_reference_step",
    "ModelReport",
    "predict",
]
