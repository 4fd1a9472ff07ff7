"""Tests for single HOOI invocations and the session's iterated HOOI."""

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.hooi.hooi import hooi_reference_step, hooi_step_sequential
from repro.hooi.sthosvd import sthosvd
from repro.mpi.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor, random_tensor


def hooi_sequential(t, init, **kw):
    return TuckerSession(backend="sequential").hooi(t, init, **kw)


def hooi_distributed(cluster, t, init, **kw):
    session = TuckerSession(backend="simcluster", cluster=cluster)
    return session.hooi(t, init, **kw)


@pytest.fixture
def problem():
    dims, core = (12, 10, 8, 6), (4, 3, 3, 2)
    t = low_rank_tensor(dims, core, noise=0.15, seed=0)
    meta = TensorMeta(dims=dims, core=core)
    return t, meta, sthosvd(t, core)


class TestSingleStep:
    def test_step_matches_reference(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        dec = hooi_step_sequential(t, init.factors, plan)
        ref = hooi_reference_step(t, init.factors, meta.core)
        np.testing.assert_allclose(dec.core, ref.core, atol=1e-8)
        for a, b in zip(dec.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_step_does_not_increase_error(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        dec = hooi_step_sequential(t, init.factors, plan)
        assert dec.error_vs(t) <= init.error_vs(t) + 1e-12

    def test_update_variants(self, problem):
        t, meta, init = problem
        jac = hooi_reference_step(t, init.factors, meta.core, update="jacobi")
        gs = hooi_reference_step(
            t, init.factors, meta.core, update="gauss-seidel"
        )
        # both must not be worse than the init; GS is the classic variant
        assert jac.error_vs(t) <= init.error_vs(t) + 1e-12
        assert gs.error_vs(t) <= init.error_vs(t) + 1e-12
        with pytest.raises(ValueError):
            hooi_reference_step(t, init.factors, meta.core, update="sor")


class TestIteration:
    def test_errors_monotone_nonincreasing(self, problem):
        t, meta, init = problem
        res = hooi_sequential(t, init, n_procs=4, max_iters=5, tol=0.0)
        for a, b in zip(res.errors, res.errors[1:]):
            assert b <= a + 1e-10

    def test_tolerance_stops_early(self, problem):
        t, _, init = problem
        res = hooi_sequential(t, init, n_procs=4, max_iters=50, tol=1e-6)
        assert res.n_iters < 50

    def test_result_error_matches_explicit(self, problem):
        t, _, init = problem
        res = hooi_sequential(t, init, n_procs=4, max_iters=3)
        assert res.error == pytest.approx(
            res.decomposition.error_vs(t), rel=1e-6
        )

    def test_empty_history_nan(self, problem):
        t, _, init = problem
        res = hooi_sequential(t, init, n_procs=4, max_iters=0)
        assert res.errors == [] and np.isnan(res.error)


class TestDistributedDriver:
    @pytest.mark.parametrize("grid_kind", ["static", "dynamic"])
    def test_matches_sequential_errors(self, problem, grid_kind):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid=grid_kind).plan(meta)
        cluster = SimCluster(8)
        dist = hooi_distributed(cluster, t, init, plan=plan, max_iters=3, tol=0.0)
        seq = hooi_sequential(t, init, plan=plan, max_iters=3, tol=0.0)
        np.testing.assert_allclose(dist.errors, seq.errors, atol=1e-9)

    def test_recovers_planted_model_to_noise_floor(self):
        dims, core = (14, 12, 10), (3, 2, 2)
        noise = 0.05
        t = low_rank_tensor(dims, core, noise=noise, seed=3)
        init = sthosvd(t, core)
        cluster = SimCluster(4)
        res = hooi_distributed(cluster, t, init, max_iters=8)
        # error should be near the noise level, not far above
        assert res.error < 1.5 * noise

    def test_random_tensor_error_bounded_by_init(self):
        t = random_tensor((10, 9, 8), seed=4)
        init = sthosvd(t, (3, 3, 3))
        cluster = SimCluster(4)
        res = hooi_distributed(cluster, t, init, max_iters=4, tol=0.0)
        assert res.error <= init.error_vs(t) + 1e-10

    def test_stats_accumulate_per_iteration(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        hooi_distributed(cluster, t, init, plan=plan, max_iters=2, tol=0.0)
        it0 = cluster.stats.volume(tag_prefix="hooi:it0")
        it1 = cluster.stats.volume(tag_prefix="hooi:it1")
        # iterations are metadata-identical: volumes must match exactly
        assert it0 == it1 > 0
