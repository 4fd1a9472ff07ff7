"""Tests for the alpha-beta machine model."""

import math

import pytest

from repro.dist.machine import MachineModel


class TestConstruction:
    def test_defaults_valid(self):
        m = MachineModel.bgq_like()
        assert m.flop_rate > 0 and m.bytes_per_element == 8

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            MachineModel(flop_rate=0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            MachineModel(alpha=-1e-6)

    def test_uniform_preset_equalizes_betas(self):
        m = MachineModel.uniform(bandwidth=2e9)
        assert m.beta_reduce_scatter == m.beta_alltoall == m.beta_allgather


class TestComputeTimes:
    def test_gemm_linear_in_flops(self):
        m = MachineModel(flop_rate=1e9)
        assert m.gemm_seconds(1e9) == pytest.approx(1.0)
        assert m.gemm_seconds(2e9) == pytest.approx(2.0)

    def test_evd_uses_scalar_rate(self):
        m = MachineModel(flop_rate=1e12, evd_rate=1e9)
        assert m.evd_seconds(1e9) == pytest.approx(1.0)


class TestCollectiveTimes:
    def test_single_rank_groups_are_free(self):
        m = MachineModel.bgq_like()
        assert m.reduce_scatter_seconds(1, 1e9) == 0.0
        assert m.alltoall_seconds(1, 1e9) == 0.0
        assert m.allgather_seconds(1, 1e9) == 0.0
        assert m.allreduce_seconds(1, 1e9) == 0.0

    def test_reduce_scatter_alpha_beta_split(self):
        m = MachineModel.uniform(bandwidth=1e9, alpha=1e-3)
        # 4 ranks: 3 latency hops; 1e6 elements = 8e6 bytes at 1 GB/s = 8 ms
        t = m.reduce_scatter_seconds(4, 1e6)
        assert t == pytest.approx(3e-3 + 8e-3)

    def test_alltoall_faster_than_reduce_scatter_by_default(self):
        m = MachineModel.bgq_like()
        v = 1e8
        assert m.alltoall_seconds(8, v) < m.reduce_scatter_seconds(8, v)

    def test_allreduce_latency_is_logarithmic(self):
        m = MachineModel.uniform(bandwidth=1e30, alpha=1.0)
        assert m.allreduce_seconds(8, 1) == pytest.approx(2 * math.log2(8), rel=1e-6)

    def test_monotone_in_volume(self):
        m = MachineModel.bgq_like()
        assert m.reduce_scatter_seconds(4, 2e6) > m.reduce_scatter_seconds(4, 1e6)
