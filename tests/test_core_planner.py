"""Tests for the Planner/Plan layer (paper section 5)."""

import pytest

from repro.core.cost import tree_cost
from repro.core.meta import TensorMeta
from repro.core.planner import GRID_KINDS, TREE_KINDS, Plan, Planner


@pytest.fixture
def meta():
    return TensorMeta(dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25))


class TestPlannerConfig:
    def test_rejects_unknown_tree(self):
        with pytest.raises(ValueError, match="tree"):
            Planner(4, tree="magic")

    def test_rejects_unknown_grid(self):
        with pytest.raises(ValueError, match="grid"):
            Planner(4, grid="wavy")

    def test_all_kinds_plan_successfully(self, meta):
        for tree in TREE_KINDS:
            for grid in GRID_KINDS:
                plan = Planner(8, tree=tree, grid=grid).plan(meta)
                assert plan.flops > 0
                plan.tree.validate()


class TestPlanContents:
    def test_flops_equals_tree_cost(self, meta):
        plan = Planner(8, tree="optimal", grid="static").plan(meta)
        assert plan.flops == tree_cost(plan.tree, meta)

    def test_static_plan_has_no_regrids(self, meta):
        plan = Planner(8, tree="balanced", grid="static").plan(meta)
        assert plan.regrid_volume == 0
        assert plan.scheme.regrid_nodes == ()
        assert plan.core_regrid_volume == 0
        # constant scheme
        grids = {tuple(g) for g in plan.scheme.assignment.values()}
        assert grids == {plan.initial_grid}

    def test_dynamic_no_worse_than_static(self, meta):
        static = Planner(8, tree="optimal", grid="static").plan(meta)
        dynamic = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        assert dynamic.total_volume <= static.total_volume
        assert dynamic.flops == static.flops

    def test_core_scheme_shape(self, meta):
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        assert sorted(plan.core_order) == list(range(meta.ndim))
        assert len(plan.core_scheme) == meta.ndim
        for g in plan.core_scheme:
            assert len(g) == meta.ndim

    def test_core_ordering_follows_heuristic(self, meta):
        from repro.core.ordering import h_ordering, k_ordering

        pk = Planner(8, tree="chain-k", grid="static").plan(meta)
        ph = Planner(8, tree="chain-h", grid="static").plan(meta)
        assert list(pk.core_order) == k_ordering(meta)
        assert list(ph.core_order) == h_ordering(meta)

    def test_initial_grid_is_valid(self, meta):
        import math

        for tree in ("optimal", "balanced"):
            for grid in GRID_KINDS:
                plan = Planner(8, tree=tree, grid=grid).plan(meta)
                assert math.prod(plan.initial_grid) == 8
                assert all(
                    q <= k for q, k in zip(plan.initial_grid, meta.core)
                )


class TestPlanSerialization:
    def test_roundtrip_static_and_dynamic(self, meta):
        plans = [
            Planner(8, tree="optimal", grid=grid).plan(meta)
            for grid in GRID_KINDS
        ]
        plans.append(
            Planner(8, tree="chain-k", grid="static").plan(
                TensorMeta(dims=(12, 10, 8, 6), core=(4, 3, 3, 2))
            )
        )
        for plan in plans:
            plan2 = Plan.from_json(plan.to_json())
            assert plan2.meta == plan.meta
            assert plan2.flops == plan.flops
            assert plan2.total_volume == plan.total_volume
            assert plan2.initial_grid == plan.initial_grid
            assert plan2.core_order == plan.core_order
            assert plan2.core_scheme == plan.core_scheme
            assert plan2.tree.to_dict() == plan.tree.to_dict()
            # TTMTree compares by identity; the deterministic JSON form
            # is the lossless-equality witness.
            assert plan2.to_json() == plan.to_json()

    def test_plan_reuse_across_invocations(self, meta):
        # the paper's planner runs once; its JSON must be stable
        p1 = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        p2 = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        assert p1.to_json() == p2.to_json()
