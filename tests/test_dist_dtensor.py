"""Tests for block-distributed tensors."""

import numpy as np
import pytest

from repro.dist.dtensor import DistTensor
from repro.dist.comm import SimCluster


class TestDistribution:
    def test_roundtrip(self):
        c = SimCluster(8)
        t = np.random.default_rng(0).standard_normal((8, 6, 4))
        dt = DistTensor.from_global(c, t, (2, 2, 2))
        np.testing.assert_array_equal(dt.to_global(), t)

    def test_block_shapes_near_even(self):
        c = SimCluster(4)
        t = np.zeros((10, 6))
        dt = DistTensor.from_global(c, t, (4, 1))
        shapes = [dt.block_shape(r) for r in range(4)]
        assert shapes == [(3, 6), (3, 6), (2, 6), (2, 6)]

    def test_uneven_roundtrip(self):
        c = SimCluster(6)
        t = np.random.default_rng(1).standard_normal((7, 5, 3))
        dt = DistTensor.from_global(c, t, (3, 2, 1))
        np.testing.assert_array_equal(dt.to_global(), t)

    def test_grid_larger_than_mode_rejected(self):
        c = SimCluster(8)
        with pytest.raises(ValueError, match="parts|empty blocks"):
            DistTensor.from_global(c, np.zeros((2, 3)), (4, 2))

    def test_block_consistency_checked(self):
        c = SimCluster(2)
        from repro.dist.grid_comm import ProcessorGrid

        grid = ProcessorGrid(c, (2, 1))
        blocks = {0: np.zeros((2, 4)), 1: np.zeros((3, 4))}  # wrong split of 4
        with pytest.raises(ValueError, match="shape"):
            DistTensor(grid, (4, 4), blocks)

    def test_missing_rank_rejected(self):
        c = SimCluster(2)
        from repro.dist.grid_comm import ProcessorGrid

        grid = ProcessorGrid(c, (2, 1))
        with pytest.raises(ValueError, match="cover"):
            DistTensor(grid, (4, 4), {0: np.zeros((2, 4))})


class TestNorm:
    def test_matches_numpy(self):
        c = SimCluster(4)
        t = np.random.default_rng(2).standard_normal((6, 8))
        dt = DistTensor.from_global(c, t, (2, 2))
        assert dt.fro_norm_sq() == pytest.approx(np.sum(t * t), rel=1e-12)

    def test_records_allreduce(self):
        c = SimCluster(4)
        dt = DistTensor.from_global(c, np.ones((4, 4)), (2, 2))
        dt.fro_norm_sq(tag="norm:test")
        assert c.stats.volume(op="allreduce", tag_prefix="norm") > 0
