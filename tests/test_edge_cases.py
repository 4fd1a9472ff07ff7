"""Edge-case and failure-injection tests across module boundaries."""

import numpy as np
import pytest

from repro.core.grids import svd_regrid_target
from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.dist.dtensor import DistTensor
from repro.hooi.model import predict
from repro.hooi.sthosvd import sthosvd
from repro.dist.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor


def hooi_sequential(t, init, **kw):
    return TuckerSession(backend="sequential").hooi(t, init, **kw)


class TestModelAllgatherFallback:
    """A meta where no q_mode = 1 grid exists at a leaf: the model and the
    engine must both take (and agree on) the allgather path."""

    def setup_method(self):
        # leaf for mode 0 sees Z of lengths (16, 2): with P = 4, q0 = 1
        # requires q1 = 4 > 2 -> impossible -> allgather fallback.
        self.meta = TensorMeta(dims=(16, 2), core=(8, 2))

    def test_target_is_none(self):
        assert svd_regrid_target((2, 2), (16, 2), 0) is None

    def test_model_and_engine_agree(self, hooi_sweep):
        plan = Planner(4, tree="optimal", grid="static").plan(self.meta)
        t = low_rank_tensor(self.meta.dims, self.meta.core, noise=0.1, seed=0)
        init = sthosvd(t, self.meta.core)
        cluster = SimCluster(4)
        hooi_sweep(t, init, plan, cluster)
        rep = predict(plan)
        assert rep.svd.volume > 0
        engine = cluster.stats.volume(tag_prefix="hooi:it0:svd")
        assert engine <= rep.svd.volume


class TestDegenerateTensors:
    def test_rank_one_tensor_exact(self):
        # outer product of three vectors: core (1,1,1) is exact
        a, b, c = (np.linspace(1, 2, n) for n in (6, 5, 4))
        t = np.einsum("i,j,k->ijk", a, b, c)
        dec = sthosvd(t, (1, 1, 1))
        assert dec.error_vs(t) < 1e-12
        # core (1,1,1) admits only the trivial grid: P must be 1
        res = hooi_sequential(t, dec, n_procs=1, max_iters=2)
        assert res.error < 1e-6  # norm-identity cancellation floor
        assert res.decomposition.error_vs(t) < 1e-12

    def test_no_valid_grid_is_a_clear_error(self):
        a, b, c = (np.linspace(1, 2, n) for n in (6, 5, 4))
        t = np.einsum("i,j,k->ijk", a, b, c)
        dec = sthosvd(t, (1, 1, 1))
        with pytest.raises(ValueError, match="no valid grid"):
            hooi_sequential(t, dec, n_procs=2, max_iters=1)

    def test_tensor_with_zero_slices(self):
        t = low_rank_tensor((8, 7, 6), (2, 2, 2), noise=0.0, seed=3)
        t[0, :, :] = 0.0
        dec = sthosvd(t, (3, 3, 3))
        res = hooi_sequential(t, dec, n_procs=2, max_iters=3, tol=0.0)
        for a, b in zip(res.errors, res.errors[1:]):
            assert b <= a + 1e-10

    def test_all_zero_tensor(self):
        t = np.zeros((6, 5, 4))
        dec = sthosvd(t, (2, 2, 2))
        assert dec.error_vs(t) == 0.0
        # the norm identity reads 0 for a zero input, not 0/0
        res = hooi_sequential(t, dec, n_procs=1, max_iters=1)
        assert res.errors == [0.0]

    def test_core_equal_dims_lossless_hooi(self):
        t = low_rank_tensor((5, 4, 3), (5, 4, 3), noise=0.0, seed=4)
        dec = sthosvd(t, (5, 4, 3))
        res = hooi_sequential(t, dec, n_procs=1, max_iters=2)
        # the norm-identity error sqrt(||T||^2 - ||G||^2) cancels
        # catastrophically at exactly zero error; ~sqrt(eps) is the floor
        assert res.error < 1e-6
        assert res.decomposition.error_vs(t) < 1e-10  # explicit is exact


class TestClusterMismatches:
    def test_plan_and_cluster_size_must_match(self):
        meta = TensorMeta(dims=(8, 6, 4), core=(4, 3, 2))
        plan = Planner(8).plan(meta)
        cluster = SimCluster(4)  # wrong size
        t = low_rank_tensor(meta.dims, meta.core, noise=0.1, seed=5)
        with pytest.raises(ValueError):
            DistTensor.from_global(cluster, t, plan.initial_grid)

    def test_single_rank_cluster_end_to_end(self, hooi_sweep):
        meta = TensorMeta(dims=(8, 6, 4), core=(4, 3, 2))
        plan = Planner(1).plan(meta)
        cluster = SimCluster(1)
        t = low_rank_tensor(meta.dims, meta.core, noise=0.1, seed=6)
        init = sthosvd(t, meta.core)
        dec = hooi_sweep(t, init, plan, cluster)
        assert cluster.stats.volume() == 0  # P = 1: zero communication
        assert dec.error_vs(t) <= init.error_vs(t) + 1e-12


class TestUpdateVariantsComparison:
    def test_gauss_seidel_and_jacobi_both_improve(self):
        from repro.hooi.hooi import hooi_reference_step

        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.3, seed=7)
        init = sthosvd(t, (3, 3, 2))
        base = init.error_vs(t)
        jac = hooi_reference_step(t, init.factors, (3, 3, 2), update="jacobi")
        gs = hooi_reference_step(
            t, init.factors, (3, 3, 2), update="gauss-seidel"
        )
        assert jac.error_vs(t) <= base + 1e-12
        assert gs.error_vs(t) <= base + 1e-12
        # the tree-compatible Jacobi variant matches GS to high accuracy
        # near a fixed point (STHOSVD init is already close)
        assert abs(jac.error_vs(t) - gs.error_vs(t)) < 0.05
