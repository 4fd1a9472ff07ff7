"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index). The expensive part — planning all five algorithm
configurations over the section-6.1 tensor suite — is done once per session
and shared. Environment knobs:

* ``REPRO_BENCH_FULL=1``  — sweep the full canonical enumeration
  (10312 + 7710 tensors) instead of the paper-sized deterministic subsample
  (1134 + 642).
* ``REPRO_BENCH_COUNT=N`` — cap the per-dimension suite at N tensors (quick
  smoke runs).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.algorithms import ALGORITHMS
from repro.bench.runner import sweep
from repro.bench.suite import benchmark_metas, paper_subsample
from repro.dist.machine import MachineModel

N_PROCS = 32  # the paper's platform: 32 BG/Q nodes, one rank per node


def _suite(ndim: int):
    if os.environ.get("REPRO_BENCH_FULL"):
        metas = benchmark_metas(ndim)
    else:
        metas = paper_subsample(ndim)
    cap = os.environ.get("REPRO_BENCH_COUNT")
    if cap and int(cap) < len(metas):
        # evenly spaced, not a prefix: the suite is sorted by shape, so a
        # prefix would be all-smallest tensors and bias every distribution
        n = int(cap)
        step = (len(metas) - 1) / (n - 1) if n > 1 else 0.0
        metas = [metas[round(i * step)] for i in range(n)]
    return metas


@pytest.fixture(scope="session")
def machine() -> MachineModel:
    return MachineModel.bgq_like()


@pytest.fixture(scope="session")
def records5(machine):
    """All five algorithm configs planned+modeled over the 5-D suite."""
    return sweep(_suite(5), list(ALGORITHMS), n_procs=N_PROCS, machine=machine)


@pytest.fixture(scope="session")
def records6(machine):
    """All five algorithm configs planned+modeled over the 6-D suite."""
    return sweep(_suite(6), list(ALGORITHMS), n_procs=N_PROCS, machine=machine)
