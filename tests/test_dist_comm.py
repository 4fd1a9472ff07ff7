"""Tests for the virtual cluster's collectives: semantics + volume accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist.comm import SimCluster
from repro.dist.machine import MachineModel


def make_cluster(p=4) -> SimCluster:
    return SimCluster(p, MachineModel.uniform(bandwidth=1e9, alpha=0.0))


class TestGroupValidation:
    def test_rejects_empty_group(self):
        c = make_cluster()
        with pytest.raises(ValueError):
            c.allgather([], {}, tag="x")

    def test_rejects_duplicate_ranks(self):
        c = make_cluster()
        with pytest.raises(ValueError):
            c.allreduce([0, 0], {0: np.zeros(2)})

    def test_rejects_out_of_range(self):
        c = make_cluster(2)
        with pytest.raises(ValueError):
            c.allreduce([0, 5], {0: np.zeros(2), 5: np.zeros(2)})


class TestReduceScatter:
    def test_semantics(self):
        c = make_cluster(3)
        group = [0, 1, 2]
        parts = {r: np.full((6, 2), float(r + 1)) for r in group}
        out = c.reduce_scatter(group, parts, [2, 2, 2], axis=0)
        total = 1.0 + 2.0 + 3.0
        for i, r in enumerate(group):
            assert out[r].shape == (2, 2)
            np.testing.assert_allclose(out[r], total)

    def test_uneven_counts(self):
        c = make_cluster(2)
        parts = {0: np.arange(10.0).reshape(5, 2), 1: np.zeros((5, 2))}
        out = c.reduce_scatter([0, 1], parts, [3, 2], axis=0)
        np.testing.assert_allclose(out[0], np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(out[1], np.arange(6.0, 10.0).reshape(2, 2))

    def test_volume_formula(self):
        # (p - 1) * total output elements
        c = make_cluster(4)
        group = [0, 1, 2, 3]
        parts = {r: np.ones((8, 3)) for r in group}
        c.reduce_scatter(group, parts, [2, 2, 2, 2], axis=0)
        assert c.stats.volume(op="reduce_scatter") == 3 * 8 * 3

    def test_single_rank_no_comm(self):
        c = make_cluster(4)
        out = c.reduce_scatter([2], {2: np.ones((4, 2))}, [4], axis=0)
        np.testing.assert_allclose(out[2], np.ones((4, 2)))
        assert len(c.stats) == 0

    def test_counts_must_sum(self):
        c = make_cluster(2)
        parts = {0: np.ones((5, 2)), 1: np.ones((5, 2))}
        with pytest.raises(ValueError, match="counts"):
            c.reduce_scatter([0, 1], parts, [3, 3], axis=0)

    def test_reduction_order_deterministic(self):
        # ascending-rank order: result identical across calls
        c = make_cluster(3)
        rng = np.random.default_rng(0)
        parts = {r: rng.standard_normal((4, 2)) for r in range(3)}
        a = c.reduce_scatter([0, 1, 2], dict(parts), [2, 1, 1], axis=0)
        b = c.reduce_scatter([0, 1, 2], dict(parts), [2, 1, 1], axis=0)
        for r in range(3):
            np.testing.assert_array_equal(a[r], b[r])


class TestAlltoallv:
    def test_semantics_and_volume(self):
        c = make_cluster(3)
        send = {
            0: {0: np.ones(4), 1: np.full(2, 2.0)},
            1: {2: np.full(3, 3.0)},
            2: {0: np.full(5, 4.0)},
        }
        recv = c.alltoallv(send)
        np.testing.assert_allclose(recv[0][0], np.ones(4))
        np.testing.assert_allclose(recv[1][0], np.full(2, 2.0))
        np.testing.assert_allclose(recv[2][1], np.full(3, 3.0))
        np.testing.assert_allclose(recv[0][2], np.full(5, 4.0))
        # local piece (0 -> 0) not counted
        assert c.stats.volume(op="alltoallv") == 2 + 3 + 5

    def test_rejects_unknown_destination(self):
        c = make_cluster(2)
        with pytest.raises(ValueError):
            c.alltoallv({0: {7: np.ones(1)}, 1: {}})

    def test_all_local_records_nothing(self):
        c = make_cluster(2)
        c.alltoallv({0: {0: np.ones(3)}, 1: {1: np.ones(3)}})
        assert len(c.stats) == 0


class TestAllgather:
    def test_semantics(self):
        c = make_cluster(3)
        pieces = {r: np.full((r + 1, 2), float(r)) for r in range(3)}
        out = c.allgather([0, 1, 2], pieces, axis=0)
        expected = np.concatenate([pieces[r] for r in range(3)], axis=0)
        for r in range(3):
            np.testing.assert_array_equal(out[r], expected)

    def test_volume_formula(self):
        c = make_cluster(4)
        pieces = {r: np.ones((2, 3)) for r in range(4)}
        c.allgather([0, 1, 2, 3], pieces, axis=0)
        assert c.stats.volume(op="allgather") == 3 * 4 * 2 * 3

    def test_outputs_independent(self):
        c = make_cluster(2)
        out = c.allgather([0, 1], {0: np.ones(2), 1: np.ones(2)}, axis=0)
        out[0][0] = 99.0
        assert out[1][0] == 1.0


class TestAllreduce:
    def test_semantics(self):
        c = make_cluster(3)
        data = {r: np.full((2, 2), float(r)) for r in range(3)}
        out = c.allreduce([0, 1, 2], data)
        for r in range(3):
            np.testing.assert_allclose(out[r], 3.0)

    def test_volume_formula(self):
        c = make_cluster(4)
        data = {r: np.ones(10) for r in range(4)}
        c.allreduce([0, 1, 2, 3], data)
        assert c.stats.volume(op="allreduce") == 2 * 10 * 3

    def test_shape_mismatch_rejected(self):
        c = make_cluster(2)
        with pytest.raises(ValueError):
            c.allreduce([0, 1], {0: np.ones(2), 1: np.ones(3)})


class TestPropertyBased:
    @given(
        p=st.integers(min_value=2, max_value=6),
        rows=st.integers(min_value=2, max_value=12),
        cols=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_reduce_scatter_equals_numpy(self, p, rows, cols, seed):
        if rows < p:
            rows = p
        c = make_cluster(p)
        rng = np.random.default_rng(seed)
        parts = {r: rng.standard_normal((rows, cols)) for r in range(p)}
        base, extra = divmod(rows, p)
        counts = [base + (1 if i < extra else 0) for i in range(p)]
        out = c.reduce_scatter(list(range(p)), parts, counts, axis=0)
        total = sum(parts[r] for r in range(p))
        start = 0
        for i in range(p):
            np.testing.assert_allclose(
                out[i], total[start : start + counts[i]], rtol=1e-12
            )
            start += counts[i]
        assert c.stats.volume(op="reduce_scatter") == (p - 1) * rows * cols

    @given(
        p=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_allreduce_equals_numpy(self, p, n, seed):
        c = make_cluster(p)
        rng = np.random.default_rng(seed)
        data = {r: rng.standard_normal(n) for r in range(p)}
        out = c.allreduce(list(range(p)), data)
        np.testing.assert_allclose(out[0], sum(data.values()), rtol=1e-12)
