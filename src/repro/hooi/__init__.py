"""The paper's math and pricing: HOOI, STHOSVD and the cost model.

Nothing here runs on a backend: the package imports only the math and
model layers below it (``util``, ``tensor``, ``core``, ``dist``, ``obs``),
never ``repro.backends`` or the session built on it.

* :mod:`repro.hooi.decomposition` — the ``{G; F_1..F_N}`` container and
  its explicit error.
* :mod:`repro.hooi.sthosvd` — sequentially truncated HOSVD, the paper's
  initial-decomposition method (the distributed pass is the compiled
  STHOSVD program of :mod:`repro.backends.schedule`).
* :mod:`repro.hooi.hooi` — the tree-free naive HOOI invocation (Figure 2
  of the paper), the oracle the engine is tested against. Running and
  iterating HOOI is :class:`repro.session.TuckerSession`'s job, over the
  programs of :mod:`repro.backends.schedule`.
* :mod:`repro.hooi.model` — metadata-only predictions of load, volume and
  alpha-beta time for a plan, priced from the per-step charges of
  :func:`repro.core.volume.plan_charges`; powers the large benchmark
  sweeps.
* :mod:`repro.hooi.portfolio` — plans every algorithm configuration,
  prices each with the model and keeps the fastest.
"""

from repro.hooi.decomposition import TuckerDecomposition
from repro.hooi.sthosvd import sthosvd, sthosvd_grid_plan
from repro.hooi.hooi import hooi_reference_step
from repro.hooi.model import ModelReport, predict
from repro.hooi.portfolio import PortfolioChoice, select_plan

__all__ = [
    "TuckerDecomposition",
    "sthosvd",
    "sthosvd_grid_plan",
    "PortfolioChoice",
    "select_plan",
    "hooi_reference_step",
    "ModelReport",
    "predict",
]
