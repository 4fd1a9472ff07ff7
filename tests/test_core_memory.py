"""Tests for the peak-memory model."""

import pytest

from repro.core.cost import node_costs
from repro.core.memory import (
    max_live_intermediates,
    plan_peak_bytes_per_rank,
    traversal_peak_cards,
)
from repro.core.meta import TensorMeta
from repro.core.opt_tree import optimal_tree
from repro.core.planner import Planner
from repro.core.trees import balanced_tree, chain_tree


@pytest.fixture
def meta():
    return TensorMeta(dims=(24, 20, 16, 10), core=(6, 10, 4, 5))


class TestLiveIntermediates:
    def test_depth_bound_paper_claim(self, meta):
        # section 3.1: live intermediates bounded by tree depth
        for tree in (
            chain_tree(4),
            balanced_tree(4),
            optimal_tree(meta),
        ):
            assert max_live_intermediates(tree) <= tree.depth()

    def test_chain_tree_exact(self):
        # a chain keeps every ancestor alive: exactly N-1 at the deepest TTM
        t = chain_tree(5)
        assert max_live_intermediates(t) == 4

    def test_single_mode(self):
        t = chain_tree(1)
        assert max_live_intermediates(t) == 0


class TestTraversalPeak:
    def test_at_least_input_plus_first_output(self, meta):
        t = optimal_tree(meta)
        costs = node_costs(t, meta)
        first = t.root.children[0]
        assert traversal_peak_cards(t, meta) >= (
            meta.cardinality + costs[first.uid]["out_card"]
        )

    def test_bounded_by_input_times_depth(self, meta):
        # every intermediate is smaller than |T| (h_n <= 1), so the DFS peak
        # is at most (depth + 1) |T|
        for tree in (chain_tree(4), balanced_tree(4), optimal_tree(meta)):
            peak = traversal_peak_cards(tree, meta)
            assert peak <= (tree.depth() + 1) * meta.cardinality

    def test_two_mode_hand_computed(self):
        m = TensorMeta(dims=(10, 20), core=(2, 4))
        t = chain_tree(2)
        # chains: x0 -> F~1 (out 2*20=40), x1 -> F~0 (out 10*4=40);
        # peak = |T| + 40 (one chain live at a time)
        assert traversal_peak_cards(t, m) == 200 + 40

    def test_balanced_ge_single_chain_level(self, meta):
        # balanced trees stack several live intermediates: peak above the
        # single-deepest-chain of a chain tree is possible but never below
        # |T| + smallest first-level output
        t = balanced_tree(4)
        assert traversal_peak_cards(t, meta) > meta.cardinality


class TestPlanPeakBytes:
    def test_components_present_and_positive(self, meta):
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        mem = plan_peak_bytes_per_rank(plan)
        assert set(mem) == {"resident", "ttm_buffer", "regrid_buffer", "total"}
        assert mem["resident"] > 0 and mem["ttm_buffer"] > 0
        assert mem["total"] == pytest.approx(
            mem["resident"] + mem["ttm_buffer"] + mem["regrid_buffer"]
        )

    def test_static_plan_stages_the_factor_step_regrid(self):
        # A static plan never regrids between TTMs, but each factor step
        # with q_n > 1 redistributes Z onto a q_n = 1 grid first: the
        # largest such Z here is 4800 elements, staged twice over P = 8.
        meta = TensorMeta((40, 30, 20, 10), (8, 6, 5, 4))
        plan = Planner(8, tree="balanced", grid="static").plan(meta)
        mem = plan_peak_bytes_per_rank(plan)
        assert mem["regrid_buffer"] == 9600.0

    def test_scales_inversely_with_procs(self, meta):
        m8 = plan_peak_bytes_per_rank(Planner(8, grid="static").plan(meta))
        m2 = plan_peak_bytes_per_rank(Planner(2, grid="static").plan(meta))
        assert m8["resident"] < m2["resident"]

    def test_bytes_per_element(self, meta):
        plan = Planner(4, grid="static").plan(meta)
        m4 = plan_peak_bytes_per_rank(plan, bytes_per_element=4)
        m8 = plan_peak_bytes_per_rank(plan, bytes_per_element=8)
        assert m8["total"] == pytest.approx(2 * m4["total"])
