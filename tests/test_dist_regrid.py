"""Tests for tensor redistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.dtensor import DistTensor
from repro.dist.regrid import regrid
from repro.dist.comm import SimCluster


class TestCorrectness:
    @given(
        src=st.sampled_from([(1, 1, 8), (2, 2, 2), (8, 1, 1), (2, 4, 1), (1, 4, 2)]),
        dst=st.sampled_from([(1, 1, 8), (2, 2, 2), (8, 1, 1), (4, 2, 1), (1, 2, 4)]),
        seed=st.integers(min_value=0, max_value=49),
    )
    @settings(max_examples=30)
    def test_content_preserved(self, src, dst, seed):
        c = SimCluster(8)
        t = np.random.default_rng(seed).standard_normal((8, 9, 10))
        dt = DistTensor.from_global(c, t, src)
        out = regrid(dt, dst)
        assert out.grid.shape == dst
        np.testing.assert_array_equal(out.to_global(), t)

    def test_same_grid_is_noop(self):
        c = SimCluster(4)
        dt = DistTensor.from_global(c, np.ones((4, 4)), (2, 2))
        out = regrid(dt, (2, 2))
        assert out is dt
        assert len(c.stats) == 0


class TestVolume:
    def test_bounded_by_cardinality(self):
        c = SimCluster(8)
        t = np.random.default_rng(1).standard_normal((8, 8, 8))
        dt = DistTensor.from_global(c, t, (2, 2, 2))
        regrid(dt, (8, 1, 1), tag="regrid")
        moved = c.stats.volume(op="alltoallv")
        assert 0 < moved <= t.size

    def test_disjoint_transpose_moves_most(self):
        # (4,1) -> (1,4): every rank keeps only its diagonal intersection
        c = SimCluster(4)
        t = np.arange(64.0).reshape(8, 8)
        dt = DistTensor.from_global(c, t, (4, 1))
        out = regrid(dt, (1, 4), tag="regrid")
        np.testing.assert_array_equal(out.to_global(), t)
        moved = c.stats.volume(op="alltoallv")
        # each rank keeps its own 2x2 diagonal block: 64 - 4*4 = 48 move
        assert moved == 48

    def test_volume_less_than_model_charge(self):
        # the planner charges |X|; the engine must never exceed it
        for dst in [(1, 8), (8, 1), (2, 4), (4, 2)]:
            c = SimCluster(8)
            t = np.random.default_rng(2).standard_normal((16, 16))
            dt = DistTensor.from_global(c, t, (2, 4))
            regrid(dt, dst)
            assert c.stats.volume(op="alltoallv") <= t.size


class TestValidation:
    def test_bad_grid_product(self):
        c = SimCluster(4)
        dt = DistTensor.from_global(c, np.zeros((4, 4)), (2, 2))
        with pytest.raises(ValueError):
            regrid(dt, (3, 1))
