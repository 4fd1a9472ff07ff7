"""HOOI, STHOSVD and the cost model.

* :mod:`repro.hooi.decomposition` — the ``{G; F_1..F_N}`` container, error
  metrics (explicit and the orthonormal-factor norm identity).
* :mod:`repro.hooi.sthosvd` — sequentially truncated HOSVD, the paper's
  initial-decomposition method (the distributed pass is the compiled
  STHOSVD program of :mod:`repro.backends.schedule`).
* :mod:`repro.hooi.hooi` — single HOOI invocations (Figure 2 of the paper)
  on the sequential and simcluster backends, plus a tree-free naive
  reference. Iterating to convergence is
  :class:`repro.session.TuckerSession`'s job, over the programs of
  :mod:`repro.backends.schedule`.
* :mod:`repro.hooi.model` — metadata-only predictions of load, volume and
  alpha-beta time for a plan, priced from the per-step charges of
  :func:`repro.core.volume.plan_charges`; powers the large benchmark
  sweeps.
"""

from repro.hooi.decomposition import TuckerDecomposition
from repro.hooi.sthosvd import sthosvd, sthosvd_grid_plan
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
    "sthosvd_grid_plan",
    "PortfolioChoice",
    "select_plan",
    "hooi_step_sequential",
    "hooi_step_distributed",
    "hooi_reference_step",
    "ModelReport",
    "predict",
]
