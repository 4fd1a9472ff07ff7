"""Tests for single HOOI invocations and the session's iterated HOOI."""

import warnings
from unittest import mock

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.hooi.hooi import hooi_reference_step
from repro.hooi.sthosvd import sthosvd
from repro.dist.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor import linalg
from repro.tensor.random import (
    low_rank_tensor,
    random_orthonormal,
    random_tensor,
)


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
    def test_step_matches_reference(self, problem, hooi_sweep):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        dec = hooi_sweep(t, init, plan)
        ref = hooi_reference_step(t, init.factors, meta.core)
        np.testing.assert_allclose(dec.core, ref.core, atol=1e-8)
        for a, b in zip(dec.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_step_does_not_increase_error(self, problem, hooi_sweep):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        dec = hooi_sweep(t, init, plan)
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


class TestWarmStartRoute:
    """Which HOOI factor updates skip the subset EVD (``leading_eigvecs``).

    A Jacobi-tree update passes the previous sweep's factor to
    ``gram_factor``; STHOSVD passes none.
    """

    DIMS, CORE = (24, 20, 16, 12), (4, 3, 3, 2)
    TWO_SWEEPS = {"max_iters": 2, "tol": float("-inf")}

    @staticmethod
    def evd_calls(run):
        with mock.patch.object(
            linalg, "leading_eigvecs", wraps=linalg.leading_eigvecs
        ) as spy:
            result = run()
        return spy.call_count, result

    def random_factors(self):
        return [
            random_orthonormal(d, k, seed=m)
            for m, (d, k) in enumerate(zip(self.DIMS, self.CORE))
        ]

    def exact_run(self, t):
        """``run`` with every update's start ignored."""
        with mock.patch.object(linalg, "_warm_factor", return_value=None):
            return TuckerSession("sequential").run(
                t, self.CORE, **self.TWO_SWEEPS
            )

    @pytest.mark.parametrize(
        "backend,n_procs",
        [("sequential", None), ("threaded", 2), ("simcluster", 4)],
    )
    def test_run_takes_the_evd_in_sthosvd_only(self, backend, n_procs):
        t = low_rank_tensor(self.DIMS, self.CORE, noise=0.05, seed=0)
        session = TuckerSession(backend, n_procs=n_procs)
        calls, result = self.evd_calls(
            lambda: session.run(t, self.CORE, **self.TWO_SWEEPS)
        )
        assert calls == t.ndim
        np.testing.assert_allclose(
            result.errors, self.exact_run(t).errors, rtol=1e-10
        )

    def test_hooi_from_random_factors_falls_back_in_sweep_one_only(self):
        t = low_rank_tensor(self.DIMS, self.CORE, noise=0.05, seed=1)
        init = self.random_factors()
        session = TuckerSession("sequential")
        one, _ = self.evd_calls(
            lambda: session.hooi(t, init, max_iters=1, tol=float("-inf"))
        )
        two, _ = self.evd_calls(
            lambda: session.hooi(t, init, **self.TWO_SWEEPS)
        )
        assert (one, two - one) == (t.ndim, 0)

    def test_pure_noise_falls_back_bit_for_bit(self):
        t = random_tensor(self.DIMS, seed=2)
        calls, warm = self.evd_calls(
            lambda: TuckerSession("sequential").run(
                t, self.CORE, **self.TWO_SWEEPS
            )
        )
        assert calls == 3 * t.ndim
        cold = self.exact_run(t)
        assert warm.errors == cold.errors
        np.testing.assert_array_equal(
            warm.decomposition.core, cold.decomposition.core
        )
        for a, b in zip(warm.decomposition.factors, cold.decomposition.factors):
            np.testing.assert_array_equal(a, b)

    def test_nan_tensor_raises_without_new_warnings(self):
        t = low_rank_tensor(self.DIMS, self.CORE, noise=0.05, seed=0)
        t[1, 2, 3, 4] = np.nan
        init = self.random_factors()
        session = TuckerSession("sequential")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infs or NaNs"):
                session.hooi(t, init, **self.TWO_SWEEPS)
