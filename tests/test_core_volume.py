"""Tests for the per-step charges (paper sections 3.1, 4.1 and 4.3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.schedule import compile_core_steps, compile_tree_steps
from repro.core.cost import node_costs
from repro.core.dynamic_grid import optimal_path_scheme
from repro.core.grids import feasible_procs
from repro.core.meta import TensorMeta
from repro.core.planner import GRID_KINDS, TREE_KINDS, Planner
from repro.core.static_grid import optimal_static_grid
from repro.core.trees import chain_tree
from repro.core.volume import (
    chain_charges,
    plan_charges,
    scheme_volume,
    static_volume,
    tree_charges,
)
from repro.hooi.model import predict
from repro.obs import modeled_step_volumes


@pytest.fixture
def m3():
    return TensorMeta(dims=(8, 6, 4), core=(4, 3, 2))


class TestStaticVolume:
    def test_formula_by_hand(self, m3):
        # grid (2, 1, 1): only TTMs along mode 0 incur volume (q0-1)|Out|
        t = chain_tree(3)
        costs = node_costs(t, m3)
        expected = sum(
            costs[n.uid]["out_card"]
            for n in t.internal_nodes()
            if n.mode == 0
        )
        assert static_volume(t, m3, (2, 1, 1)) == expected

    def test_grid_of_ones_is_free(self, m3):
        assert static_volume(chain_tree(3), m3, (1, 1, 1)) == 0

    def test_invalid_grid_rejected(self, m3):
        with pytest.raises(ValueError, match="not valid"):
            static_volume(chain_tree(3), m3, (8, 1, 1))  # q0 > K0=4

    def test_monotone_in_q(self, m3):
        t = chain_tree(3)
        assert static_volume(t, m3, (2, 1, 1)) <= static_volume(t, m3, (4, 1, 1))


def _regrid_volumes(tree, meta, scheme):
    """Node uid -> the volume of its regrid charge."""
    return {
        int(c.tag.removeprefix("regrid:n")): c.volume
        for c in tree_charges(tree, meta, scheme)
        if c.op == "alltoall"
    }


class TestSchemeVolume:
    def test_static_scheme_has_no_regrid(self, m3):
        t = chain_tree(3)
        scheme = {n.uid: (2, 1, 1) for n in t.nodes if n.kind != "leaf"}
        ttm, regrid = scheme_volume(t, m3, scheme)
        assert regrid == 0
        assert ttm == static_volume(t, m3, (2, 1, 1))

    def test_regrid_charged_on_change(self, m3):
        t = chain_tree(3)
        scheme = {n.uid: (2, 1, 1) for n in t.nodes if n.kind != "leaf"}
        # change one internal node's grid -> regrid |In| at that node
        some = next(iter(t.internal_nodes()))
        scheme[some.uid] = (1, 2, 1)
        vols = _regrid_volumes(t, m3, scheme)
        costs = node_costs(t, m3)
        assert vols[some.uid] == costs[some.uid]["in_card"]

    def test_child_of_regridded_node_compares_to_new_grid(self, m3):
        t = chain_tree(3)
        # chain: root -> a -> b -> leaf; set a to (1,2,1) and b same ->
        # b pays no regrid even though root grid differs
        a = t.root.children[0]
        b = a.children[0]
        scheme = {t.root.uid: (2, 1, 1), a.uid: (1, 2, 1), b.uid: (1, 2, 1)}
        # fill all other internal nodes with root grid
        for n in t.nodes:
            if n.kind != "leaf" and n.uid not in scheme:
                scheme[n.uid] = (2, 1, 1)
        vols = _regrid_volumes(t, m3, scheme)
        assert vols[a.uid] > 0
        assert vols[b.uid] == 0

    def test_missing_node_rejected(self, m3):
        t = chain_tree(3)
        with pytest.raises(ValueError, match="missing"):
            scheme_volume(t, m3, {t.root.uid: (1, 1, 1)})

    def test_invalid_node_grid_rejected(self, m3):
        t = chain_tree(3)
        scheme = {n.uid: (1, 1, 1) for n in t.nodes if n.kind != "leaf"}
        scheme[next(t.internal_nodes()).uid] = (1, 1, 4)  # q2 > K2=2
        with pytest.raises(ValueError, match="invalid"):
            scheme_volume(t, m3, scheme)

    def test_missing_root_rejected(self, m3):
        t = chain_tree(3)
        scheme = {
            n.uid: (1, 1, 1)
            for n in t.nodes
            if n.kind == "ttm"
        }
        with pytest.raises(ValueError, match="root"):
            scheme_volume(t, m3, scheme)


@st.composite
def plans(draw):
    """A planner plan over small random metadata, any tree and grid kind."""
    n = draw(st.integers(min_value=3, max_value=4))
    dims = tuple(draw(st.integers(min_value=2, max_value=9)) for _ in range(n))
    core = tuple(draw(st.integers(min_value=1, max_value=d)) for d in dims)
    meta = TensorMeta(dims=dims, core=core)
    procs = feasible_procs(meta, draw(st.sampled_from([1, 2, 4, 6, 8, 12])))
    return Planner(
        procs,
        tree=draw(st.sampled_from(TREE_KINDS)),
        grid=draw(st.sampled_from(GRID_KINDS)),
    ).plan(meta)


def _sum(charges, field, **match):
    return sum(
        getattr(c, field)
        for c in charges
        if all(getattr(c, k) == v for k, v in match.items())
    )


class TestCharges:
    @given(plans())
    def test_sums_are_the_plan_totals_and_the_model_phases(self, plan):
        charges = list(plan_charges(plan))
        assert _sum(charges, "flops", phase="ttm") == plan.flops
        assert _sum(charges, "volume", phase="ttm") == plan.ttm_volume
        assert _sum(charges, "volume", phase="regrid") == plan.regrid_volume
        core_rs = _sum(charges, "volume", phase="core", op="reduce_scatter")
        core_regrid = _sum(charges, "volume", phase="core", op="alltoall")
        assert core_rs == plan.core_ttm_volume
        assert core_regrid == plan.core_regrid_volume
        # the trace's per-step volumes partition the same totals
        vols = modeled_step_volumes(plan)
        for prefix, total in (
            ("ttm:", plan.ttm_volume),
            ("regrid:", plan.regrid_volume),
            ("core:ttm", plan.core_ttm_volume),
            ("core:regrid", plan.core_regrid_volume),
        ):
            assert sum(
                v for t, v in vols.items() if t.startswith(prefix)
            ) == total
        report = predict(plan)
        for phase in ("ttm", "regrid", "svd", "core"):
            assert getattr(report, phase).volume == _sum(
                charges, "volume", phase=phase
            )
            assert getattr(report, phase).flops == _sum(
                charges, "flops", phase=phase
            )
        # the searches' own closed forms agree with the charges
        if plan.grid_kind == "static":
            _, vol = optimal_static_grid(plan.tree, plan.meta, plan.n_procs)
            assert plan.ttm_volume == vol
        else:
            _, ttm, regrid = optimal_path_scheme(
                plan.meta, list(plan.core_order), plan.initial_grid,
                plan.n_procs,
            )
            assert (core_rs, core_regrid) == (ttm, regrid)

    @given(plans())
    def test_tags_are_the_compiled_step_tags(self, plan):
        meta = plan.meta
        steps = compile_tree_steps(plan.tree, meta, plan.scheme)
        tree = tree_charges(plan.tree, meta, plan.scheme.assignment)
        assert list(dict.fromkeys(c.tag for c in tree)) == [
            s.tag for s in steps if s.op in ("regrid", "ttm")
        ]
        svd = (c.tag for c in plan_charges(plan) if c.phase == "svd")
        assert list(dict.fromkeys(svd)) == [
            s.tag for s in steps if s.op == "svd"
        ]
        core = chain_charges(
            meta, plan.core_order, plan.core_scheme, plan.initial_grid
        )
        assert list(dict.fromkeys(c.tag for c in core)) == [
            f"core:{s.tag}"
            for s in compile_core_steps(plan.core_order, plan.core_scheme)
            if s.op in ("regrid", "ttm")
        ]
