"""Property tests: the distributed engine agrees with the sequential kernels.

For random shapes, grids and modes, ``dist_ttm`` / ``dist_gram`` must
reproduce the sequential :mod:`repro.tensor` kernels (up to BLAS summation
order — partial products are reduced in ascending-rank order, so we assert
tight tolerances rather than bit equality), ``regrid`` must move elements
*exactly* (bit-identical content, never more volume than the model's
``|X|`` charge), and scatter/gather must round-trip bit-identically.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.dtensor import DistTensor
from repro.dist.gram import dist_gram
from repro.dist.regrid import regrid
from repro.dist.ttm import dist_ttm
from repro.dist.comm import SimCluster
from repro.tensor.linalg import gram
from repro.tensor.ttm import ttm
from repro.tensor.unfold import unfold
from repro.util.partitions import ordered_factorizations


@st.composite
def dist_cases(draw, max_ndim=4, n_grids=1):
    """A random (dims, n_procs, grids, seed) engine configuration.

    ``grids`` holds ``n_grids`` distinct-or-equal valid grids for the same
    processor count (regrid endpoints draw two).
    """
    ndim = draw(st.integers(min_value=2, max_value=max_ndim))
    dims = tuple(
        draw(st.integers(min_value=2, max_value=9)) for _ in range(ndim)
    )
    n_procs = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    candidates = [
        g
        for g in ordered_factorizations(n_procs, ndim)
        if all(q <= d for q, d in zip(g, dims))
    ]
    if not candidates:
        n_procs = 1
        candidates = [(1,) * ndim]
    grids = tuple(draw(st.sampled_from(candidates)) for _ in range(n_grids))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return dims, n_procs, grids, seed


def _tensor(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


class TestRoundtrip:
    @given(case=dist_cases())
    def test_scatter_gather_identity(self, case):
        dims, n_procs, (grid,), seed = case
        t = _tensor(dims, seed)
        dt = DistTensor.from_global(SimCluster(n_procs), t, grid)
        np.testing.assert_array_equal(dt.to_global(), t)


class TestDistTtm:
    @given(case=dist_cases(), data=st.data())
    def test_matches_sequential(self, case, data):
        dims, n_procs, (grid,), seed = case
        mode = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        k = data.draw(st.integers(min_value=grid[mode], max_value=10))
        t = _tensor(dims, seed)
        a = np.random.default_rng(seed + 1).standard_normal(
            (k, dims[mode])
        )
        c = SimCluster(n_procs)
        out = dist_ttm(DistTensor.from_global(c, t, grid), a, mode)
        np.testing.assert_allclose(
            out.to_global(), ttm(t, a, mode), rtol=1e-10, atol=1e-12
        )
        # exact paper volume and flop accounting
        expected_vol = (grid[mode] - 1) * out.cardinality
        assert c.stats.volume(op="reduce_scatter") == expected_vol
        assert c.stats.flops() == k * math.prod(dims)


class TestDistGram:
    @given(case=dist_cases(), data=st.data())
    def test_matches_sequential(self, case, data):
        dims, n_procs, (grid,), seed = case
        mode = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
        t = _tensor(dims, seed)
        g = dist_gram(
            DistTensor.from_global(SimCluster(n_procs), t, grid), mode
        )
        np.testing.assert_allclose(
            g, gram(unfold(t, mode)), rtol=1e-9, atol=1e-10
        )


class TestRegrid:
    @given(case=dist_cases(n_grids=2))
    @settings(max_examples=60)
    def test_exact_and_bounded(self, case):
        dims, n_procs, (src, dst), seed = case
        t = _tensor(dims, seed)
        c = SimCluster(n_procs)
        dt = DistTensor.from_global(c, t, src)
        out = regrid(dt, dst)
        assert out.grid.shape == dst
        np.testing.assert_array_equal(out.to_global(), t)
        moved = c.stats.volume(op="alltoallv")
        assert moved <= t.size  # the model's |X| charge is an upper bound
        if src == dst:
            assert out is dt and moved == 0

    @given(case=dist_cases(n_grids=2))
    @settings(max_examples=30)
    def test_composes_with_ttm(self, case):
        """regrid then TTM == TTM on the original layout == sequential."""
        dims, n_procs, (src, dst), seed = case
        t = _tensor(dims, seed)
        c = SimCluster(n_procs)
        moved = regrid(DistTensor.from_global(c, t, src), dst)
        mode = len(dims) - 1
        k = max(dst[mode], 3)
        a = np.random.default_rng(seed + 2).standard_normal((k, dims[mode]))
        out = dist_ttm(moved, a, mode)
        np.testing.assert_allclose(
            out.to_global(), ttm(t, a, mode), rtol=1e-10, atol=1e-12
        )
