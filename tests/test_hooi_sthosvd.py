"""Tests for STHOSVD (sequential and distributed)."""

import numpy as np
import pytest

from repro.hooi.sthosvd import sthosvd
from repro.tensor.dense import fro_norm, relative_error
from repro.tensor.random import low_rank_tensor, random_tensor


class TestSequential:
    def test_exact_recovery_of_low_rank(self):
        t = low_rank_tensor((10, 9, 8), (3, 2, 4), noise=0.0, seed=0)
        dec = sthosvd(t, (3, 2, 4))
        assert dec.error_vs(t) < 1e-10

    def test_factors_orthonormal(self):
        t = random_tensor((8, 7, 6), seed=1)
        dec = sthosvd(t, (4, 3, 2))
        assert dec.factor_orthonormality() < 1e-10

    def test_core_shape(self):
        t = random_tensor((8, 7, 6), seed=2)
        dec = sthosvd(t, (4, 3, 2))
        assert dec.core_dims == (4, 3, 2)

    def test_norm_identity_holds(self):
        t = random_tensor((8, 7, 6), seed=3)
        dec = sthosvd(t, (4, 3, 2))
        # orthonormal factors: ||T - Z||^2 = ||T||^2 - ||G||^2
        t2, g2 = fro_norm(t) ** 2, fro_norm(dec.core) ** 2
        assert np.sqrt((t2 - g2) / t2) == pytest.approx(
            dec.error_vs(t), rel=1e-8
        )

    def test_full_rank_core_is_lossless(self):
        t = random_tensor((6, 5, 4), seed=4)
        dec = sthosvd(t, (6, 5, 4))
        assert dec.error_vs(t) < 1e-10

    def test_mode_order_changes_factors_not_validity(self):
        t = random_tensor((8, 7, 6), seed=5)
        d1 = sthosvd(t, (4, 3, 2), mode_order="natural")
        d2 = sthosvd(t, (4, 3, 2), mode_order="optimal")
        d3 = sthosvd(t, (4, 3, 2), mode_order=[2, 0, 1])
        for d in (d1, d2, d3):
            assert d.factor_orthonormality() < 1e-10
        # errors comparable (same truncation ranks)
        errs = [d.error_vs(t) for d in (d1, d2, d3)]
        assert max(errs) - min(errs) < 0.1

    def test_bad_order_rejected(self):
        t = random_tensor((4, 4), seed=6)
        with pytest.raises(ValueError, match="permutation"):
            sthosvd(t, (2, 2), mode_order=[0, 0])


class TestDistributed:
    def test_matches_sequential(self, sthosvd_on_cluster):
        t = low_rank_tensor((12, 10, 8), (4, 3, 2), noise=0.1, seed=7)
        _, core_dist, factors = sthosvd_on_cluster(t, (4, 3, 2), 8, (2, 2, 2))
        seq = sthosvd(t, (4, 3, 2))
        for f_dist, f_seq in zip(factors, seq.factors):
            np.testing.assert_allclose(f_dist, f_seq, atol=1e-8)
        np.testing.assert_allclose(core_dist.to_global(), seq.core, atol=1e-8)

    def test_error_matches_sequential(self, sthosvd_on_cluster):
        t = low_rank_tensor((10, 9, 8), (3, 3, 3), noise=0.2, seed=8)
        _, core_dist, factors = sthosvd_on_cluster(t, (3, 3, 3), 4, (2, 2, 1))
        from repro.hooi.decomposition import TuckerDecomposition

        dec = TuckerDecomposition(core=core_dist.to_global(), factors=factors)
        seq = sthosvd(t, (3, 3, 3))
        assert dec.error_vs(t) == pytest.approx(seq.error_vs(t), rel=1e-8)

    def test_records_comm(self, sthosvd_on_cluster):
        t = random_tensor((8, 8, 8), seed=9)
        c, _, _ = sthosvd_on_cluster(t, (4, 4, 4), 4, (2, 2, 1))
        assert c.stats.volume(tag_prefix="sthosvd") > 0
