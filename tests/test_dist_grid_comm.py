"""Tests for processor grids and mode groups."""

import pytest

from repro.dist.grid_comm import ProcessorGrid
from repro.dist.comm import SimCluster


@pytest.fixture
def grid8():
    return ProcessorGrid(SimCluster(8), (2, 2, 2))


class TestConstruction:
    def test_product_must_match(self):
        with pytest.raises(ValueError, match="cells"):
            ProcessorGrid(SimCluster(8), (2, 2))

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            ProcessorGrid(SimCluster(4), (4, 0))


class TestCoordinates:
    def test_roundtrip(self, grid8):
        for rank in range(8):
            assert grid8.rank_of(grid8.coords(rank)) == rank

    def test_c_order(self, grid8):
        assert grid8.coords(0) == (0, 0, 0)
        assert grid8.coords(1) == (0, 0, 1)
        assert grid8.coords(4) == (1, 0, 0)

    def test_bounds_checked(self, grid8):
        with pytest.raises(ValueError):
            grid8.coords(8)
        with pytest.raises(ValueError):
            grid8.rank_of((2, 0, 0))
        with pytest.raises(ValueError):
            grid8.rank_of((0, 0))


class TestModeGroups:
    def test_group_of_rank(self, grid8):
        g = grid8.mode_group(0, 0)
        # ranks with coords (*, 0, 0): 0 and 4
        assert g == [0, 4]

    def test_groups_partition_ranks(self, grid8):
        for mode in range(3):
            groups = grid8.mode_groups(mode)
            flat = [r for g in groups for r in g]
            assert sorted(flat) == list(range(8))
            assert all(len(g) == grid8.shape[mode] for g in groups)

    def test_group_ordered_by_mode_coordinate(self, grid8):
        for mode in range(3):
            for g in grid8.mode_groups(mode):
                coords = [grid8.coords(r)[mode] for r in g]
                assert coords == sorted(coords) == list(range(grid8.shape[mode]))

    def test_singleton_mode(self):
        grid = ProcessorGrid(SimCluster(4), (4, 1))
        assert all(g == [r] for r, g in zip(range(4), grid.mode_groups(1)))
