"""Tests for dynamic gridding applied to STHOSVD (paper section 1 remark).

``tests/golden/sthosvd_grids.json`` pins the distributed pass: the ordered
``(op, tag, elements, flops)`` ledger records and the sha256 of every
factor and of the core, for a 3-D and a 4-D tensor on eight ranks, on a
static grid and on :func:`sthosvd_grid_plan`'s grids. It was written by the
hand-rolled distributed STHOSVD loop the compiled program replaced, so it
is a fixed oracle: regenerating it from the code it checks would prove
nothing.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.backends.schedule import compile_core_steps, compile_sthosvd_steps
from repro.core.meta import TensorMeta
from repro.hooi.sthosvd import sthosvd, sthosvd_grid_plan
from repro.tensor.random import low_rank_tensor

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sthosvd_grids.json")

CONFIGS = {
    "3d_p8": {"dims": (20, 15, 6), "core": (10, 5, 3), "n_procs": 8},
    "4d_p8": {"dims": (12, 12, 9, 8), "core": (4, 6, 3, 4), "n_procs": 8},
}


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def build_snapshot(run) -> dict:
    """Every golden case rebuilt on the compiled program: the plan's mode
    order, its first grid as the layout, with and without its regrids."""
    snapshot = {}
    for name, config in sorted(CONFIGS.items()):
        dims, core, n_procs = config["dims"], config["core"], config["n_procs"]
        t = low_rank_tensor(dims, core, noise=0.1, seed=0)
        order, grids, _, _ = sthosvd_grid_plan(dims, core, n_procs)
        for scheme, chain_grids in (("static", None), ("grids", grids)):
            cluster, core_dt, factors = run(
                t, core, n_procs, grids[0], order=order, grids=chain_grids
            )
            snapshot[f"{name}_{scheme}"] = {
                "dims": dims, "core": core, "n_procs": n_procs,
                "order": order, "grids": grids,
                "records": [
                    [r.op, r.tag, r.elements, r.flops]
                    for r in cluster.stats.records
                ],
                "factors_sha256": [_sha256(f) for f in factors],
                "core_sha256": _sha256(core_dt.to_global()),
            }
    return json.loads(json.dumps(snapshot))


@pytest.fixture
def problem():
    dims, core = (12, 10, 8, 6), (4, 3, 3, 2)
    return dims, core, low_rank_tensor(dims, core, noise=0.1, seed=0)


class TestGridPlan:
    def test_shapes_and_validity(self, problem):
        dims, core, _ = problem
        order, grids, ttm_vol, regrid_vol = sthosvd_grid_plan(dims, core, 8)
        assert sorted(order) == list(range(4))
        assert len(grids) == 4
        for g in grids:
            assert int(np.prod(g)) == 8
            assert all(q <= k for q, k in zip(g, core))
        assert ttm_vol >= 0 and regrid_vol >= 0

    def test_beats_best_static_grid(self, problem):
        # the path DP with a free initial layout can never lose to the best
        # single static grid for the same chain
        dims, core, _ = problem
        meta = TensorMeta(dims=dims, core=core)
        order, _, ttm_vol, regrid_vol = sthosvd_grid_plan(dims, core, 8)
        from repro.core.grids import valid_grids

        best_static = None
        for g in valid_grids(8, meta):
            premult = 0
            vol = 0
            for mode in order:
                premult |= 1 << mode
                vol += (g[mode] - 1) * meta.card_after(premult)
            best_static = vol if best_static is None else min(best_static, vol)
        assert ttm_vol + regrid_vol <= best_static

    def test_communication_free_when_possible(self):
        # plenty of headroom: K large on one mode -> DP can make every TTM
        # free by keeping ranks on already-truncated or untouched modes
        order, grids, ttm_vol, _ = sthosvd_grid_plan(
            (64, 64, 64), (32, 32, 32), 4
        )
        assert ttm_vol == 0


class TestDistSthosvdWithScheme:
    def test_matches_golden_bit_for_bit(self, sthosvd_on_cluster):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert build_snapshot(sthosvd_on_cluster) == golden

    def test_matches_static_results(self, problem, sthosvd_on_cluster):
        dims, core, t = problem
        order, grids, _, _ = sthosvd_grid_plan(dims, core, 8, mode_order="natural")
        _, core_dist, factors = sthosvd_on_cluster(
            t, core, 8, grids[0], order=order, grids=grids
        )
        seq = sthosvd(t, core, mode_order="natural")
        for a, b in zip(factors, seq.factors):
            np.testing.assert_allclose(a, b, atol=1e-8)
        np.testing.assert_allclose(core_dist.to_global(), seq.core, atol=1e-8)

    def test_scheme_reduces_ttm_volume(self, problem, sthosvd_on_cluster):
        dims, core, t = problem
        order, grids, planned_ttm, _ = sthosvd_grid_plan(
            dims, core, 8, mode_order="natural"
        )

        # dynamic run
        c_dyn, _, _ = sthosvd_on_cluster(
            t, core, 8, grids[0], order=order, grids=grids, tag="s"
        )
        dyn_ttm = c_dyn.stats.volume(op="reduce_scatter", tag_prefix="s:ttm")
        assert dyn_ttm == planned_ttm

        # static run on the same initial grid
        c_st, _, _ = sthosvd_on_cluster(t, core, 8, grids[0], order=order, tag="s")
        static_ttm = c_st.stats.volume(op="reduce_scatter", tag_prefix="s:ttm")
        assert dyn_ttm <= static_ttm

    def test_scheme_length_checked(self, problem):
        dims, core, _ = problem
        meta = TensorMeta(dims=dims, core=core)
        with pytest.raises(ValueError, match="one grid per chain position"):
            compile_sthosvd_steps(range(4), meta, grids=[(2, 2, 1, 1)])
        with pytest.raises(ValueError, match="one grid per chain position"):
            compile_core_steps(range(4), [(2, 2, 1, 1)] * 5)
