"""The planner module (paper section 5).

The planner consumes only metadata (tensor dims + core dims), builds a
TTM-tree (a prior-work heuristic or the optimal tree) and a grid scheme
(optimal static grid or optimal dynamic scheme), and emits a :class:`Plan`.
A plan is computed once and reused across HOOI invocations; it is JSON
serializable for exactly that workflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import tree_cost
from repro.core.dynamic_grid import (
    GridScheme,
    optimal_dynamic_scheme,
    optimal_path_scheme,
    static_scheme,
)
from repro.core.meta import TensorMeta
from repro.core.opt_tree import optimal_tree
from repro.core.ordering import (
    h_ordering,
    k_ordering,
    natural_ordering,
    optimal_chain_ordering,
)
from repro.core.static_grid import optimal_static_grid
from repro.core.trees import TTMTree, balanced_tree, chain_tree
from repro.core.volume import chain_charges, volume_totals
from repro.util import serial
from repro.util.validation import check_positive_int

TREE_KINDS = (
    "optimal",
    "chain-natural",
    "chain-k",
    "chain-h",
    "balanced",
    "no_reuse",
    "eager_reuse",
)
GRID_KINDS = ("static", "dynamic")


@dataclass(frozen=True)
class Plan:
    """A complete HOOI execution plan plus its predicted exact metrics.

    ``flops`` is the TTM-component multiply-add count (paper section 3);
    ``ttm_volume``/``regrid_volume`` are communication volumes in elements
    (section 4). All three are exact integers under the paper's model.
    """

    meta: TensorMeta
    n_procs: int
    tree: TTMTree
    scheme: GridScheme
    tree_kind: str
    grid_kind: str
    flops: int
    ttm_volume: int
    regrid_volume: int
    #: new-core chain: mode order, grid per chain position, volumes
    core_order: tuple[int, ...] = ()
    core_scheme: tuple[tuple[int, ...], ...] = ()
    core_ttm_volume: int = 0
    core_regrid_volume: int = 0

    @property
    def total_volume(self) -> int:
        """TTM-component volume (tree TTMs + regrids; core excluded, as in
        the paper's section-4 metric)."""
        return self.ttm_volume + self.regrid_volume

    @property
    def initial_grid(self) -> tuple[int, ...]:
        """Grid on which the input tensor ``T`` must be distributed."""
        return self.scheme.grid_of(self.tree.root.uid)

    def to_json(self) -> str:
        return serial.dumps(
            {
                "meta": self.meta.to_dict(),
                "n_procs": self.n_procs,
                "tree": self.tree.to_dict(),
                "scheme": self.scheme.to_dict(),
                "tree_kind": self.tree_kind,
                "grid_kind": self.grid_kind,
                "flops": self.flops,
                "ttm_volume": self.ttm_volume,
                "regrid_volume": self.regrid_volume,
                "core_order": list(self.core_order),
                "core_scheme": [list(g) for g in self.core_scheme],
                "core_ttm_volume": self.core_ttm_volume,
                "core_regrid_volume": self.core_regrid_volume,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        d = serial.loads(text)
        return cls(
            meta=TensorMeta.from_dict(d["meta"]),
            n_procs=int(d["n_procs"]),
            tree=TTMTree.from_dict(d["tree"]),
            scheme=GridScheme.from_dict(d["scheme"]),
            tree_kind=d["tree_kind"],
            grid_kind=d["grid_kind"],
            flops=int(d["flops"]),
            ttm_volume=int(d["ttm_volume"]),
            regrid_volume=int(d["regrid_volume"]),
            core_order=tuple(serial.as_int_tuple(d["core_order"])),
            core_scheme=tuple(
                tuple(serial.as_int_tuple(g)) for g in d["core_scheme"]
            ),
            core_ttm_volume=int(d["core_ttm_volume"]),
            core_regrid_volume=int(d["core_regrid_volume"]),
        )


class Planner:
    """Builds :class:`Plan` objects from metadata.

    Parameters
    ----------
    n_procs:
        Number of ranks the tensors will be distributed over.
    tree:
        One of ``"optimal"`` (section 3.3 DP), ``"chain-natural"``,
        ``"chain-k"``, ``"chain-h"`` (section 3.2 heuristics),
        ``"balanced"`` (Kaya-Ucar), or the ablation policies ``"no_reuse"``
        / ``"eager_reuse"``.
    grid:
        ``"static"`` (optimal static grid, section 4.2) or ``"dynamic"``
        (optimal dynamic scheme, section 4.4).
    """

    def __init__(
        self, n_procs: int, tree: str = "optimal", grid: str = "dynamic"
    ) -> None:
        self.n_procs = check_positive_int(n_procs, "n_procs")
        if tree not in TREE_KINDS:
            raise ValueError(f"tree must be one of {TREE_KINDS}, got {tree!r}")
        if grid not in GRID_KINDS:
            raise ValueError(f"grid must be one of {GRID_KINDS}, got {grid!r}")
        self.tree_kind = tree
        self.grid_kind = grid

    def build_tree(self, meta: TensorMeta) -> TTMTree:
        """Construct the TTM-tree for ``meta`` per the configured kind."""
        kind = self.tree_kind
        if kind == "optimal":
            return optimal_tree(meta)
        if kind in ("no_reuse", "eager_reuse"):
            return optimal_tree(meta, policy=kind)
        if kind == "chain-natural":
            return chain_tree(meta.ndim, natural_ordering(meta))
        if kind == "chain-k":
            return chain_tree(meta.ndim, k_ordering(meta))
        if kind == "chain-h":
            return chain_tree(meta.ndim, h_ordering(meta))
        if kind == "balanced":
            return balanced_tree(meta.ndim)
        raise AssertionError(kind)

    def build_scheme(self, tree: TTMTree, meta: TensorMeta) -> GridScheme:
        """Construct the grid scheme for ``tree`` per the configured kind."""
        if self.grid_kind == "static":
            grid, _ = optimal_static_grid(tree, meta, self.n_procs)
            return static_scheme(tree, meta, grid)
        return optimal_dynamic_scheme(tree, meta, self.n_procs)

    def core_chain_ordering(self, meta: TensorMeta) -> list[int]:
        """Mode order of the new-core chain, matching the tree's heuristic.

        The new core is one more TTM chain; each algorithm orders it the way
        it orders its trees (K-/h-/natural ordering for the prior
        heuristics, the exact flop-optimal chain order for ours).
        """
        if self.tree_kind == "chain-k":
            return k_ordering(meta)
        if self.tree_kind == "chain-h":
            return h_ordering(meta)
        if self.tree_kind in ("chain-natural", "balanced"):
            return natural_ordering(meta)
        return optimal_chain_ordering(meta)

    def build_core_plan(
        self, meta: TensorMeta, initial_grid: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple, int, int]:
        """Gridding of the new-core chain, matching the algorithm's spirit.

        Static configurations keep the single static grid for the core chain
        (what prior-work engines do); the dynamic configuration applies the
        paper's dynamic-gridding idea to the chain as well via
        :func:`optimal_path_scheme`.
        """
        order = self.core_chain_ordering(meta)
        if self.grid_kind == "static":
            grids = [tuple(initial_grid)] * meta.ndim
        else:
            grids, _, _ = optimal_path_scheme(
                meta, order, tuple(initial_grid), self.n_procs
            )
        ttm_vol, regrid_vol = volume_totals(
            chain_charges(meta, order, grids, initial_grid)
        )
        return tuple(order), tuple(grids), ttm_vol, regrid_vol

    def plan(self, meta: TensorMeta) -> Plan:
        """Metadata in, plan out — the paper's planner entry point."""
        tree = self.build_tree(meta)
        scheme = self.build_scheme(tree, meta)
        initial_grid = scheme.grid_of(tree.root.uid)
        core_order, core_scheme, core_ttm, core_regrid = self.build_core_plan(
            meta, initial_grid
        )
        return Plan(
            meta=meta,
            n_procs=self.n_procs,
            tree=tree,
            scheme=scheme,
            tree_kind=self.tree_kind,
            grid_kind=self.grid_kind,
            flops=tree_cost(tree, meta),
            ttm_volume=scheme.ttm_volume,
            regrid_volume=scheme.regrid_volume,
            core_order=core_order,
            core_scheme=core_scheme,
            core_ttm_volume=core_ttm,
            core_regrid_volume=core_regrid,
        )
