"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.backends.schedule import compile_sthosvd_steps, run_steps
from repro.backends.simcluster import SimClusterBackend
from repro.core.meta import TensorMeta
from repro.dist.comm import SimCluster
from repro.dist.machine import MachineModel
from repro.session import TuckerSession

# Hypothesis: no wall-clock deadline (BLAS warm-up jitter), moderate example
# counts so the full suite stays fast; REPRO_HYP_EXAMPLES overrides.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=int(os.environ.get("REPRO_HYP_EXAMPLES", "40")),
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def meta4() -> TensorMeta:
    """A 4-D metadata with distinct K and h per mode."""
    return TensorMeta(dims=(24, 20, 16, 10), core=(6, 10, 4, 5))


@pytest.fixture
def meta5() -> TensorMeta:
    """A 5-D metadata shaped like the paper's benchmark tensors."""
    return TensorMeta(dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25))


@pytest.fixture
def cluster8() -> SimCluster:
    return SimCluster(8)


@pytest.fixture
def cluster4() -> SimCluster:
    return SimCluster(4)


@pytest.fixture
def uniform_machine() -> MachineModel:
    return MachineModel.uniform(bandwidth=1e9, alpha=0.0)


@pytest.fixture
def sthosvd_on_cluster():
    """The distributed STHOSVD pass: the compiled program on the engine.

    ``run(t, core, n_procs, grid, order=None, grids=None)`` distributes
    ``t`` on ``grid`` of a fresh cluster, replays
    :func:`compile_sthosvd_steps` over ``order`` (natural by default),
    regridding onto ``grids`` when given, and returns
    ``(cluster, distributed core, factors)``.
    """

    def run(t, core, n_procs, grid, *, order=None, grids=None, tag="sthosvd"):
        cluster = SimCluster(n_procs)
        backend = SimClusterBackend(cluster)
        meta = TensorMeta(dims=t.shape, core=core)
        order = range(t.ndim) if order is None else order
        factors = [None] * t.ndim
        steps = compile_sthosvd_steps(order, meta, grids=grids)
        core_dt, _, _ = run_steps(
            backend, backend.distribute(t, grid), steps, factors, tag=tag
        )
        return cluster, core_dt, factors

    return run


@pytest.fixture
def hooi_sweep():
    """One HOOI invocation (paper Figure 2) through the session.

    ``run(t, init, plan, cluster=None)`` runs one cold sweep of ``plan``
    on ``cluster`` (on the sequential backend without one) and returns
    the new decomposition. On a cluster the sweep's records carry the
    ``hooi:it0:`` tag prefix; the session's two norm reductions
    (``norm:input``, ``norm:core``) fall outside it.
    """

    def run(t, init, plan, cluster=None):
        backend = (
            "sequential" if cluster is None else SimClusterBackend(cluster)
        )
        result = TuckerSession(backend).hooi(
            t, init, plan=plan, max_iters=1, tol=0.0
        )
        return result.decomposition

    return run
