"""The paper's contribution: optimal TTM-trees and optimal (dynamic) gridding.

Layout
------
* :mod:`repro.core.meta` — ``TensorMeta``: the (dims, core) metadata pair the
  planner operates on. All cost/volume arithmetic is exact-integer.
* :mod:`repro.core.trees` — TTM-tree data structure, validation, and the
  chain / balanced constructions of prior work (paper section 3.2).
* :mod:`repro.core.ordering` — K-ordering and h-ordering heuristics plus the
  exact exchange-argument ordering for full chains.
* :mod:`repro.core.cost` — FLOP cost of a tree (paper section 3.1).
* :mod:`repro.core.opt_tree` — the O(4^N) optimal-tree DP (section 3.3).
* :mod:`repro.core.enumerate_trees` — exhaustive binary-tree enumeration used
  to cross-check the DP on small N.
* :mod:`repro.core.grids` — processor grids and the psi(P, N) count
  (section 4.2).
* :mod:`repro.core.volume` — the per-step charges every cost reader prices
  (sections 3.1, 4.1 and 4.3).
* :mod:`repro.core.static_grid` — optimal static grid by exhaustive search.
* :mod:`repro.core.dynamic_grid` — the optimal dynamic-gridding DP
  (section 4.4).
* :mod:`repro.core.planner` — the paper's "planner" module (section 5):
  metadata in, (tree, grid scheme) plan out.
"""

from repro.core.meta import TensorMeta
from repro.core.trees import Node, TTMTree, chain_tree, balanced_tree
from repro.core.ordering import (
    natural_ordering,
    k_ordering,
    h_ordering,
    optimal_chain_ordering,
)
from repro.core.cost import tree_cost, node_costs, normalized_tree_cost
from repro.core.opt_tree import optimal_tree, optimal_tree_cost
from repro.core.enumerate_trees import enumerate_trees, brute_force_optimal_cost
from repro.core.grids import enumerate_grids, valid_grids, psi, is_valid_grid
from repro.core.volume import static_volume, scheme_volume
from repro.core.static_grid import optimal_static_grid
from repro.core.dynamic_grid import GridScheme, optimal_dynamic_scheme, static_scheme
from repro.core.planner import Plan, Planner

__all__ = [
    "TensorMeta",
    "Node",
    "TTMTree",
    "chain_tree",
    "balanced_tree",
    "natural_ordering",
    "k_ordering",
    "h_ordering",
    "optimal_chain_ordering",
    "tree_cost",
    "node_costs",
    "normalized_tree_cost",
    "optimal_tree",
    "optimal_tree_cost",
    "enumerate_trees",
    "brute_force_optimal_cost",
    "enumerate_grids",
    "valid_grids",
    "psi",
    "is_valid_grid",
    "static_volume",
    "scheme_volume",
    "optimal_static_grid",
    "GridScheme",
    "optimal_dynamic_scheme",
    "static_scheme",
    "Plan",
    "Planner",
]
