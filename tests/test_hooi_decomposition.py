"""Tests for the TuckerDecomposition container."""

import numpy as np
import pytest

from repro.hooi.decomposition import TuckerDecomposition
from repro.tensor.random import random_tucker
from repro.tensor.ttm import ttm_chain


def make_dec(seed=0, dims=(8, 7, 6), core=(3, 2, 4)) -> TuckerDecomposition:
    g, factors = random_tucker(dims, core, seed=seed)
    return TuckerDecomposition(core=g, factors=factors)


class TestConstruction:
    def test_shapes(self):
        d = make_dec()
        assert d.dims == (8, 7, 6)
        assert d.core_dims == (3, 2, 4)
        assert d.meta.cardinality == 8 * 7 * 6

    def test_factor_count_checked(self):
        g, factors = random_tucker((8, 7), (3, 2))
        with pytest.raises(ValueError, match="factors"):
            TuckerDecomposition(core=g, factors=factors[:1])

    def test_factor_column_mismatch(self):
        g, factors = random_tucker((8, 7), (3, 2))
        factors[0] = factors[0][:, :2]  # 8x2 but core says 3
        with pytest.raises(ValueError, match="columns"):
            TuckerDecomposition(core=g, factors=factors)

    def test_wide_factor_rejected(self):
        g = np.zeros((3, 5))
        factors = [np.zeros((8, 3)), np.zeros((4, 5))]
        with pytest.raises(ValueError, match="wide"):
            TuckerDecomposition(core=g, factors=factors)


class TestNumerics:
    def test_reconstruct_matches_chain(self):
        d = make_dec(1)
        np.testing.assert_allclose(
            d.reconstruct(),
            ttm_chain(d.core, d.factors, [0, 1, 2]),
            rtol=1e-12,
        )

    def test_orthonormality_metric(self):
        d = make_dec(2)
        assert d.factor_orthonormality() < 1e-12
        d.factors[0][:, 0] *= 2.0
        assert d.factor_orthonormality() > 1.0

    def test_compression_ratio(self):
        d = make_dec(3, dims=(100, 100), core=(5, 5))
        stored = 25 + 2 * 500
        assert d.compression_ratio == pytest.approx(10000 / stored)

    def test_error_vs_exact_for_projection(self):
        # T built exactly from the model: error 0
        d = make_dec(4)
        t = d.reconstruct()
        assert d.error_vs(t) < 1e-12
