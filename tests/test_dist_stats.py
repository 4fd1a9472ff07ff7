"""Tests for the stats ledger."""

import pytest

from repro.dist.stats import Record, StatsLedger


class TestRecord:
    def test_valid(self):
        r = Record("comm", "reduce_scatter", "ttm:rs", 4, 100.0, 0.0, 1e-3)
        assert r.elements == 100.0

    def test_rejects_bad_category(self):
        with pytest.raises(ValueError):
            Record("network", "x", "t")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Record("comm", "x", "t", elements=-1)
        with pytest.raises(ValueError):
            Record("comm", "x", "t", group_size=0)


class TestLedger:
    def make(self) -> StatsLedger:
        s = StatsLedger()
        s.add_comm("reduce_scatter", "ttm:n1", 4, 100, 0.5)
        s.add_comm("alltoallv", "regrid:n2", 8, 40, 0.25)
        s.add_comm("allreduce", "svd:g", 8, 10, 0.05)
        s.add_compute("gemm", "ttm:gemm", 1000, 1.0)
        s.add_compute("evd", "svd:evd", 500, 2.0)
        return s

    def test_volume_filters(self):
        s = self.make()
        assert s.volume() == 150
        assert s.volume(op="reduce_scatter") == 100
        assert s.volume(tag_prefix="regrid") == 40
        assert s.volume(op="alltoallv", tag_prefix="ttm") == 0

    def test_flops_and_seconds(self):
        s = self.make()
        assert s.flops() == 1500
        assert s.flops(tag_prefix="svd") == 500
        assert s.comm_seconds() == pytest.approx(0.8)
        assert s.compute_seconds() == pytest.approx(3.0)
        assert s.total_seconds() == pytest.approx(3.8)
        assert s.total_seconds(tag_prefix="svd") == pytest.approx(2.05)

    def test_merge_and_clear(self):
        a, b = self.make(), self.make()
        a.merge(b)
        assert len(a) == 10
        a.clear()
        assert len(a) == 0 and a.volume() == 0

    def test_records_immutable_view(self):
        s = self.make()
        assert isinstance(s.records, tuple)
        assert len(s.records) == 5
