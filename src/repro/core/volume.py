"""The paper's per-step charges (sections 3.1, 4.1 and 4.3), in one place.

* TTM at node ``u`` (mode ``n``) with its input distributed on grid ``g``:
  ``K_n * |In(u)|`` multiply-adds, then ``vol(u, g) = (g_n - 1) * |Out(u)|``
  — the reduce-scatter over mode-n fibers.
* Regridding a tensor ``X`` from one grid to another: ``|X|`` (the model
  charges a full redistribution; the engine reports the exact moved-element
  count, which is <= this).
* The new-core chain pays the same charges; each leaf's factor step pays
  a regrid (or allgather), the Gram, its allreduce and the EVD.

A **grid scheme** maps every internal node to the grid its *input* (and
output) live on; see :mod:`repro.core.dynamic_grid`. A static grid is the
constant scheme. The model, the planner's totals, the memory model and
trace summaries all read the :class:`Charge` records yielded here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, NamedTuple

from repro.core.cost import node_costs
from repro.core.grids import Grid, is_valid_grid, svd_regrid_target
from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.core.trees import TTMTree

if TYPE_CHECKING:
    from repro.core.planner import Plan


class Charge(NamedTuple):
    """One op of one schedule step under the paper's cost model.

    ``phase`` is the :class:`~repro.hooi.model.ModelReport` phase
    (``ttm`` / ``regrid`` / ``svd`` / ``core``) and ``tag`` the step tag
    (``regrid:n3``, ``ttm:n3``, ``svd:m1``, ``core:regrid0``,
    ``core:ttm2``). ``op`` is ``gemm``, ``evd`` or a collective
    (``alltoall`` for a regrid, ``reduce_scatter``, ``allgather``,
    ``allreduce``) over ``group`` ranks. ``flops`` counts multiply-adds,
    ``volume`` the elements the model charges as moved (0 for a regrid
    onto the grid the tensor already has), and ``card`` the elements of
    the step's global result.
    """

    phase: str
    tag: str
    op: str
    group: int
    flops: int
    volume: int
    card: int


def tree_charges(
    tree: TTMTree, meta: TensorMeta, scheme: Mapping[int, Grid]
) -> Iterator[Charge]:
    """Each tree TTM's regrid, GEMM and reduce-scatter, in node order.

    ``scheme`` maps internal-node uid -> grid of that node's input/output;
    the root's grid is the initial distribution of ``T``. A node whose grid
    differs from its parent's pays ``|In(u)|``; every node yields its
    regrid charge, with volume 0 when it stays on its parent's grid (the
    schedule still emits the step, the engine moves nothing).
    """
    costs = node_costs(tree, meta)
    for node in tree.internal_nodes():
        uid, cost = node.uid, costs[node.uid]
        grid = tuple(scheme[uid])
        p, q, out = math.prod(grid), grid[node.mode], cost["out_card"]
        card = cost["in_card"]
        moved = card if grid != tuple(scheme[tree.parent(node).uid]) else 0
        yield Charge("regrid", f"regrid:n{uid}", "alltoall", p, 0, moved, card)
        yield Charge("ttm", f"ttm:n{uid}", "gemm", p, cost["flops"], 0, out)
        rs = (q - 1) * out
        yield Charge("ttm", f"ttm:n{uid}", "reduce_scatter", q, 0, rs, out)


def chain_charges(
    meta: TensorMeta,
    order: Sequence[int],
    grids: Sequence[Grid],
    initial_grid: Grid,
) -> Iterator[Charge]:
    """The new-core chain's charges: per position a regrid, GEMM and
    reduce-scatter, the working tensor shrinking as modes are applied.

    ``grids`` holds one grid per chain position; the chain starts from
    ``initial_grid``. With no ``grids`` the whole chain stays on
    ``initial_grid`` and no regrid charges are yielded (the schedule
    compiles no regrid steps for it either).
    """
    prev = tuple(initial_grid)
    card, premult = meta.cardinality, 0
    for i, mode in enumerate(order):
        grid = tuple(grids[i]) if grids else prev
        p, q, tag = math.prod(grid), grid[mode], f"core:ttm{mode}"
        if grids:
            moved = card if grid != prev else 0
            yield Charge(
                "core", f"core:regrid{i}", "alltoall", p, 0, moved, card
            )
        premult |= 1 << mode
        out = meta.card_after(premult)
        yield Charge("core", tag, "gemm", p, meta.core[mode] * card, 0, out)
        yield Charge("core", tag, "reduce_scatter", q, 0, (q - 1) * out, out)
        card, prev = out, grid


def plan_charges(plan: Plan) -> Iterator[Charge]:
    """Every charge of one HOOI invocation of ``plan``: the tree's TTMs,
    each leaf's factor step in node order, then the new-core chain.

    A leaf reads its parent's output ``Z``, regridded onto
    :func:`svd_regrid_target` (``|Z|`` unless already there) or, failing
    that, allgathered within the mode group (``(q_n - 1)|Z|``); then the
    Gram, its world allreduce and the replicated EVD.
    """
    meta, tree, p = plan.meta, plan.tree, plan.n_procs
    assignment = plan.scheme.assignment
    yield from tree_charges(tree, meta, assignment)
    costs = node_costs(tree, meta)
    for leaf in tree.leaves():
        parent = tree.parent(leaf)
        tag = f"svd:m{leaf.mode}"
        grid = tuple(assignment[parent.uid])
        z_card = costs[parent.uid]["out_card"]
        z_lengths = meta.shape_after(tree.premultiplied_mask(parent))
        ell = meta.dims[leaf.mode]
        target = svd_regrid_target(grid, z_lengths, leaf.mode)
        if target is not None:
            moved = z_card if tuple(target) != grid else 0
            yield Charge("svd", tag, "alltoall", p, 0, moved, z_card)
        else:
            q = grid[leaf.mode]
            gathered = (q - 1) * z_card
            yield Charge("svd", tag, "allgather", q, 0, gathered, z_card)
        gram = ell * ell
        syrk = ell * (ell + 1) // 2 * (z_card // ell)
        yield Charge("svd", tag, "gemm", p, syrk, 0, gram)
        yield Charge("svd", tag, "allreduce", p, 0, 2 * gram * (p - 1), gram)
        yield Charge("svd", tag, "evd", 1, int(4 * ell**3 // 3), 0, gram)
    order = plan.core_order or optimal_chain_ordering(meta)
    yield from chain_charges(meta, order, plan.core_scheme, plan.initial_grid)


def volume_totals(charges: Iterable[Charge]) -> tuple[int, int]:
    """``(ttm_volume, regrid_volume)``: the reduce-scatter and the regrid
    volume of tree or chain charges."""
    ttm = regrid = 0
    for charge in charges:
        if charge.op == "reduce_scatter":
            ttm += charge.volume
        elif charge.op == "alltoall":
            regrid += charge.volume
    return ttm, regrid


def static_volume(tree: TTMTree, meta: TensorMeta, grid: Grid) -> int:
    """Total TTM communication volume of the tree under one static grid."""
    if not is_valid_grid(grid, meta):
        raise ValueError(f"grid {grid} is not valid for meta {meta}")
    constant = {node.uid: tuple(grid) for node in tree.nodes}
    return volume_totals(tree_charges(tree, meta, constant))[0]


def scheme_volume(
    tree: TTMTree, meta: TensorMeta, scheme: Mapping[int, Grid]
) -> tuple[int, int]:
    """Return ``(ttm_volume, regrid_volume)`` totals of a grid scheme.

    ``scheme`` must assign a valid grid to the root (the initial layout of
    ``T``) and to every internal node; leaves inherit their parent's.
    """
    if tree.root.uid not in scheme:
        raise ValueError("scheme must assign a grid to the root (initial layout)")
    for node in tree.nodes:
        if node.kind == "leaf":
            continue
        grid = scheme.get(node.uid)
        if grid is None:
            raise ValueError(f"scheme missing grid for node uid={node.uid}")
        if not is_valid_grid(grid, meta):
            raise ValueError(f"grid {grid} at node uid={node.uid} is invalid")
    return volume_totals(tree_charges(tree, meta, scheme))
