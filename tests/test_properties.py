"""Heavier hypothesis property tests over random metadata and tensors.

These encode the paper's structural guarantees as universally-quantified
properties: DP optimality dominance, scheme-subset relations, exactness of
the volume formula in the engine, and HOOI's projection identities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import tree_cost
from repro.core.dynamic_grid import optimal_dynamic_scheme, static_scheme
from repro.core.meta import TensorMeta
from repro.core.opt_tree import optimal_tree, optimal_tree_cost
from repro.core.grids import valid_grids
from repro.core.ordering import h_ordering, k_ordering
from repro.core.static_grid import optimal_static_grid
from repro.core.trees import balanced_tree, chain_tree
from repro.dist.dtensor import DistTensor
from repro.dist.ttm import dist_ttm
from repro.dist.comm import SimCluster
from repro.tensor.ttm import ttm


@st.composite
def metas(draw, n_min=3, n_max=5):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    dims, core = [], []
    for _ in range(n):
        ell = draw(st.sampled_from([4, 6, 8, 12, 20, 40]))
        k = draw(st.sampled_from([1, 2, 3, 4]))
        dims.append(ell)
        core.append(max(1, ell // k))
    return TensorMeta(dims=tuple(dims), core=tuple(core))


class TestTreeProperties:
    @given(metas())
    @settings(max_examples=30)
    def test_optimal_dominates_all_constructions(self, m):
        opt = optimal_tree_cost(m)
        n = m.ndim
        assert opt <= tree_cost(chain_tree(n), m)
        assert opt <= tree_cost(chain_tree(n, k_ordering(m)), m)
        assert opt <= tree_cost(chain_tree(n, h_ordering(m)), m)
        assert opt <= tree_cost(balanced_tree(n), m)

    @given(metas())
    @settings(max_examples=20)
    def test_optimal_tree_is_permutation_invariant(self, m):
        # relabeling modes must not change the optimal cost
        perm = list(range(m.ndim))[::-1]
        m2 = TensorMeta(
            dims=tuple(m.dims[p] for p in perm),
            core=tuple(m.core[p] for p in perm),
        )
        assert optimal_tree_cost(m) == optimal_tree_cost(m2)

    @given(metas())
    @settings(max_examples=20)
    def test_cost_lower_bound_single_ttm(self, m):
        # any tree performs at least one TTM on the full tensor: its cost is
        # at least min_n K_n |T|
        assert optimal_tree_cost(m) >= min(m.core) * m.cardinality or m.ndim == 1


class TestGridProperties:
    @given(metas(n_min=3, n_max=4), st.sampled_from([2, 4, 8]))
    @settings(max_examples=25)
    def test_dynamic_subsumes_static(self, m, p):
        # the property only applies when a valid grid exists: p <= prod K_n
        # is necessary but not sufficient (e.g. core (3, 3, 1) admits no
        # factorization of 8 with q_n <= K_n)
        try:
            valid_grids(p, m)
        except ValueError:
            return
        t = optimal_tree(m)
        _, vol_static = optimal_static_grid(t, m, p)
        dyn = optimal_dynamic_scheme(t, m, p)
        assert dyn.total_volume <= vol_static

    @given(metas(n_min=3, n_max=4), st.sampled_from([2, 4]))
    @settings(max_examples=20)
    def test_static_scheme_volume_consistency(self, m, p):
        if p > int(np.prod(m.core)):
            return
        t = balanced_tree(m.ndim)
        grid, vol = optimal_static_grid(t, m, p)
        s = static_scheme(t, m, grid)
        assert s.ttm_volume == vol and s.regrid_volume == 0


class TestEngineProperties:
    @given(
        st.integers(min_value=0, max_value=200),
        st.sampled_from([(2, 2, 1), (4, 1, 1), (1, 2, 2), (1, 1, 4)]),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=20)
    def test_dist_ttm_exact_volume_and_value(self, seed, gshape, mode):
        rng = np.random.default_rng(seed)
        dims = (8, 9, 7)
        k = int(rng.integers(4, 8))
        t = rng.standard_normal(dims)
        a = rng.standard_normal((k, dims[mode]))
        c = SimCluster(4)
        dt = DistTensor.from_global(c, t, gshape)
        out = dist_ttm(dt, a, mode)
        np.testing.assert_allclose(out.to_global(), ttm(t, a, mode), rtol=1e-9)
        assert c.stats.volume(op="reduce_scatter") == (
            (gshape[mode] - 1) * out.cardinality
        )
