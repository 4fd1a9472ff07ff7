"""Tests for distributed TTM: correctness vs the sequential kernel and the
paper's exact volume formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.dtensor import DistTensor
from repro.dist.ttm import dist_ttm
from repro.dist.comm import SimCluster
from repro.tensor.ttm import ttm


class TestCorrectness:
    def test_matches_sequential(self):
        c = SimCluster(8)
        rng = np.random.default_rng(0)
        t = rng.standard_normal((8, 6, 4))
        a = rng.standard_normal((3, 6))
        dt = DistTensor.from_global(c, t, (2, 2, 2))
        out = dist_ttm(dt, a, 1)
        np.testing.assert_allclose(out.to_global(), ttm(t, a, 1), rtol=1e-12)

    def test_output_grid_unchanged(self):
        c = SimCluster(4)
        dt = DistTensor.from_global(c, np.zeros((8, 8)), (2, 2))
        out = dist_ttm(dt, np.zeros((4, 8)), 0)
        assert out.grid.shape == (2, 2)
        assert out.global_shape == (4, 8)

    @given(
        mode=st.integers(min_value=0, max_value=2),
        gshape=st.sampled_from([(1, 1, 4), (2, 2, 1), (4, 1, 1), (1, 2, 2)]),
        k=st.integers(min_value=4, max_value=9),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25)
    def test_matches_sequential_across_grids(self, mode, gshape, k, seed):
        c = SimCluster(4)
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((9, 8, 7))
        a = rng.standard_normal((k, t.shape[mode]))
        dt = DistTensor.from_global(c, t, gshape)
        out = dist_ttm(dt, a, mode)
        np.testing.assert_allclose(out.to_global(), ttm(t, a, mode), rtol=1e-10)

    def test_uneven_blocks(self):
        c = SimCluster(3)
        rng = np.random.default_rng(5)
        t = rng.standard_normal((7, 5))
        a = rng.standard_normal((4, 7))
        dt = DistTensor.from_global(c, t, (3, 1))
        out = dist_ttm(dt, a, 0)
        np.testing.assert_allclose(out.to_global(), ttm(t, a, 0), rtol=1e-12)


class TestVolumeAccounting:
    def test_exact_paper_formula(self):
        # volume = (q_n - 1) |Out| regardless of block divisibility
        for gshape, mode, k in [((2, 2, 2), 0, 4), ((4, 2, 1), 1, 5), ((2, 1, 4), 2, 6)]:
            c = SimCluster(8)
            t = np.random.default_rng(1).standard_normal((8, 9, 10))
            a = np.random.default_rng(2).standard_normal((k, t.shape[mode]))
            dt = DistTensor.from_global(c, t, gshape)
            out = dist_ttm(dt, a, mode, tag="ttm")
            q = gshape[mode]
            expected = (q - 1) * out.cardinality
            assert c.stats.volume(op="reduce_scatter") == expected

    def test_communication_free_when_q_is_one(self):
        c = SimCluster(4)
        t = np.random.default_rng(3).standard_normal((8, 8))
        dt = DistTensor.from_global(c, t, (1, 4))
        dist_ttm(dt, np.random.default_rng(4).standard_normal((3, 8)), 0)
        assert c.stats.volume(op="reduce_scatter") == 0

    def test_flop_accounting(self):
        c = SimCluster(2)
        t = np.ones((6, 4))
        dt = DistTensor.from_global(c, t, (2, 1))
        dist_ttm(dt, np.ones((3, 6)), 0, tag="ttm")
        # total flops = K * |T| = 3 * 24
        assert c.stats.flops(tag_prefix="ttm") == 72


class TestValidation:
    def test_invalid_output_grid_rejected(self):
        # q_mode = 4 but K = 2: output blocks would be empty
        c = SimCluster(4)
        dt = DistTensor.from_global(c, np.zeros((8, 4)), (4, 1))
        with pytest.raises(ValueError, match="q_mode"):
            dist_ttm(dt, np.zeros((2, 8)), 0)

    def test_matrix_shape_rejected(self):
        c = SimCluster(2)
        dt = DistTensor.from_global(c, np.zeros((8, 4)), (2, 1))
        with pytest.raises(ValueError, match="incompatible"):
            dist_ttm(dt, np.zeros((3, 9)), 0)
