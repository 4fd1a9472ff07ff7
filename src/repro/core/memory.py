"""Peak-memory model for plan execution.

The paper bounds intermediate storage by the tree depth ("by executing the
process via an in-order traversal, we can ensure that the maximum number of
intermediate tensors stored at any point is bounded by the depth of the
tree", section 3.1) and explicitly curtails benchmark tensors to fit the
32 x 16 GB platform (section 6.1). This module makes that footprint a
first-class, exact quantity:

* :func:`traversal_peak_cards` — peak sum of live tensor cardinalities over
  the depth-first execution of a tree (the input tensor ``T`` is resident
  throughout; a node's output stays live while its children execute);
* :func:`max_live_intermediates` — peak *count* of live intermediates,
  which the depth bound caps;
* :func:`plan_peak_bytes_per_rank` — per-rank bytes for a full plan,
  including the transient buffers of the distributed TTM (the partial
  product before reduce-scatter) and of regrids (send+receive staging).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.cost import node_costs
from repro.core.meta import TensorMeta
from repro.core.planner import Plan
from repro.core.trees import Node, TTMTree
from repro.core.volume import plan_charges


def carried_nodes(path: Sequence[Node]) -> tuple[Node, ...]:
    """The nodes of a root ``path`` whose outputs a warm tree program reads.

    A chain that has already computed every output on ``path`` (see
    :meth:`TTMTree.root_path`) spares the next tree program those TTMs;
    what that program still *reads* are the outputs with a child off the
    path — a sibling subtree or a leaf's SVD. The deepest node always
    qualifies; a node whose only child is the next node of the path never
    does, and its output need not outlive the chain step that consumes it.
    """
    return tuple(
        node
        for node, below in zip(path, (*path[1:], None))
        if any(child is not below for child in node.children)
    )


def traversal_peak_cards(
    tree: TTMTree, meta: TensorMeta, chain: Sequence[int] = ()
) -> int:
    """Peak sum of live cardinalities (elements) during DFS execution.

    Counts the input tensor plus every intermediate alive at the deepest
    moment: when executing node ``u``, the outputs of all its ancestors are
    still live (each is reused by later siblings).

    With ``chain`` — the mode order of a sequentially truncating chain
    (STHOSVD, the core chain) run just before the tree — this prices the
    *warm* sweep that chain hands its prefix to: the outputs
    :func:`carried_nodes` keeps are live from the chain step that makes
    them, through the rest of the chain, until the tree has executed their
    subtree — which it does first, so they never stack on another
    subtree's intermediates.
    """
    costs = node_costs(tree, meta)
    path = tree.root_path(chain)
    on_path = {node.uid for node in path}
    kept = {node.uid for node in carried_nodes(path)}
    total = meta.cardinality
    peak = total
    held = 0  # carried outputs currently live

    # the chain: a step holds its source and its output; a kept source is
    # already counted in ``held``
    working = mask = 0
    for i, mode in enumerate(chain):
        mask |= 1 << mode
        out = meta.card_after(mask)
        peak = max(peak, total + held + working + out)
        if i < len(path) and path[i].uid in kept:
            held += out
            working = 0
        else:
            working = out

    def visit(node: Node, extra: int) -> None:
        nonlocal peak, held
        # a leaf's SVD consumes the parent's output; nothing new is stored
        # beyond the (small) Gram matrix, which we neglect here
        peak = max(peak, total + held + extra)
        for child in sorted(node.children, key=lambda c: c.uid not in on_path):
            if child.uid in on_path:
                visit(child, extra)
                if child.uid in kept:
                    held -= costs[child.uid]["out_card"]
            elif child.kind == "ttm":
                visit(child, extra + costs[child.uid]["out_card"])
            else:
                visit(child, extra)

    visit(tree.root, 0)
    return peak


def max_live_intermediates(tree: TTMTree) -> int:
    """Peak number of simultaneously live intermediate tensors.

    Equals the largest number of TTM ancestors of any node plus one (the
    node's own output) — by construction bounded by the tree depth, the
    paper's section 3.1 claim (checked in the tests).
    """
    peak = 0

    def visit(node: Node, live: int) -> None:
        nonlocal peak
        if node.kind == "ttm":
            live += 1
            peak = max(peak, live)
        for child in node.children:
            visit(child, live)

    visit(tree.root, 0)
    return peak


def plan_peak_bytes_per_rank(
    plan: Plan, *, bytes_per_element: int = 8
) -> dict[str, float]:
    """Per-rank peak memory (bytes) to execute one HOOI invocation.

    Components (all divided by ``P``; valid grids keep blocks balanced to
    within one slab):

    * ``resident`` — peak live tensors along the DFS
      (:func:`traversal_peak_cards`);
    * ``ttm_buffer`` — the largest transient of any TTM, the tree's or the
      core chain's: the local partial product is
      ``K_n x local-fibers = q_n x`` the output block, held together with
      the reduce-scatter result;
    * ``regrid_buffer`` — staging for the largest redistribution, the
      tree's, a factor step's (each leaf's ``Z`` regridded for its Gram)
      or the core chain's (send intersections + assembled new block,
      ~2x the tensor's local share).

    Returns the components and their sum under ``"total"``.
    """
    meta = plan.meta
    p = plan.n_procs
    tree = plan.tree

    resident = traversal_peak_cards(tree, meta) / p

    ttm_buffer = regrid_buffer = 0.0
    for charge in plan_charges(plan):
        if charge.op == "reduce_scatter":
            # partial product (q x output block) + scattered result (1 x)
            ttm_buffer = max(ttm_buffer, (charge.group + 1) * charge.card / p)
        elif charge.op == "alltoall":
            regrid_buffer = max(regrid_buffer, 2 * charge.volume / p)

    scale = float(bytes_per_element)
    out = {
        "resident": resident * scale,
        "ttm_buffer": ttm_buffer * scale,
        "regrid_buffer": regrid_buffer * scale,
    }
    out["total"] = sum(out.values())
    return out
