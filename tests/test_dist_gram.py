"""Tests for the distributed Gram / SVD factor extraction."""

import numpy as np
import pytest

from repro.dist.dtensor import DistTensor
from repro.dist.gram import dist_gram, dist_leading_factor
from repro.dist.comm import SimCluster
from repro.tensor.linalg import gram, leading_eigvecs
from repro.tensor.unfold import unfold


class TestDistGram:
    @pytest.mark.parametrize(
        "gshape,mode",
        [
            ((2, 2, 2), 0),
            ((2, 2, 2), 1),
            ((4, 2, 1), 0),
            ((1, 8, 1), 1),
            ((8, 1, 1), 2),
            ((1, 1, 8), 2),
        ],
    )
    def test_matches_sequential_gram(self, gshape, mode):
        c = SimCluster(8)
        t = np.random.default_rng(0).standard_normal((8, 9, 10))
        dt = DistTensor.from_global(c, t, gshape)
        g = dist_gram(dt, mode)
        np.testing.assert_allclose(g, gram(unfold(t, mode)), rtol=1e-10)

    def test_regrid_path_taken_when_possible(self):
        # q_mode > 1 but a q=1 factorization exists -> alltoallv, no allgather
        c = SimCluster(8)
        t = np.random.default_rng(1).standard_normal((8, 9, 10))
        dt = DistTensor.from_global(c, t, (2, 2, 2))
        dist_gram(dt, 0, tag="svd")
        assert c.stats.volume(op="alltoallv", tag_prefix="svd") > 0
        assert c.stats.volume(op="allgather", tag_prefix="svd") == 0

    def test_no_comm_when_mode_not_split(self):
        c = SimCluster(4)
        t = np.random.default_rng(2).standard_normal((8, 8))
        dt = DistTensor.from_global(c, t, (1, 4))
        dist_gram(dt, 0, tag="svd")
        assert c.stats.volume(op="alltoallv", tag_prefix="svd") == 0
        assert c.stats.volume(op="allgather", tag_prefix="svd") == 0
        # allreduce of the Gram always happens
        assert c.stats.volume(op="allreduce", tag_prefix="svd") > 0

    def test_allgather_fallback(self):
        # lengths too small for any q_mode=1 grid: 4 ranks, other mode len 2
        c = SimCluster(4)
        t = np.random.default_rng(3).standard_normal((8, 2))
        dt = DistTensor.from_global(c, t, (4, 1))
        g = dist_gram(dt, 0, tag="svd")
        np.testing.assert_allclose(g, gram(unfold(t, 0)), rtol=1e-10)
        assert c.stats.volume(op="allgather", tag_prefix="svd") > 0


class TestDistLeadingFactor:
    def test_matches_sequential(self):
        c = SimCluster(8)
        t = np.random.default_rng(4).standard_normal((8, 9, 10))
        dt = DistTensor.from_global(c, t, (2, 2, 2))
        f = dist_leading_factor(dt, 1, 3)
        expected = leading_eigvecs(gram(unfold(t, 1)), 3)
        np.testing.assert_allclose(f, expected, atol=1e-8)

    def test_orthonormal(self):
        c = SimCluster(4)
        t = np.random.default_rng(5).standard_normal((6, 6, 6))
        dt = DistTensor.from_global(c, t, (2, 2, 1))
        f = dist_leading_factor(dt, 0, 2)
        np.testing.assert_allclose(f.T @ f, np.eye(2), atol=1e-10)

    def test_records_evd_compute(self):
        c = SimCluster(2)
        dt = DistTensor.from_global(
            c, np.random.default_rng(6).standard_normal((4, 6)), (2, 1)
        )
        dist_leading_factor(dt, 0, 2, tag="svd")
        evd = [r for r in c.stats.records if r.op == "evd"]
        assert len(evd) == 1 and evd[0].flops == pytest.approx(4 / 3 * 4**3)
