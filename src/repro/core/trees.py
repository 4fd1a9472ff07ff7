"""TTM-trees: the shared-work schedules of the HOOI TTM component.

A TTM-tree (paper section 3.1) is a rooted tree where

* the root represents the input tensor ``T``;
* each of the ``N`` leaves is labeled with a unique new factor matrix
  ``F~_n``;
* each internal node is labeled with a mode and performs
  ``Out(u) = In(u) x_mode F_mode^T``;
* on every root-to-leaf path to ``F~_n`` exactly the modes ``[N] \\ {n}``
  appear, once each (the TTM-chain needed for ``F~_n``).

Node identity: nodes get stable ids in **preorder** (root = 0, children in
list order). Grid schemes (:mod:`repro.core.dynamic_grid`) key off these ids.

This module provides the data structure plus the two prior-work
constructions the paper benchmarks against (section 3.2): chain trees (the
naive N-independent-chains scheme, with a mode-ordering knob) and the
Kaya-Ucar balanced trees (~N log N TTMs via divide and conquer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.meta import TensorMeta
from repro.util.partitions import balanced_split
from repro.util.serial import as_int_tuple

ROOT = "root"
TTM = "ttm"
LEAF = "leaf"


@dataclass
class Node:
    """One tree node.

    ``kind`` is ``"root"`` (holds ``T``; exactly one, at the top), ``"ttm"``
    (internal; ``mode`` = mode multiplied), or ``"leaf"`` (``mode`` = index
    of the factor matrix computed there). ``uid`` is assigned by
    :meth:`TTMTree.reindex` (preorder).
    """

    kind: str
    mode: int | None = None
    children: list["Node"] = field(default_factory=list)
    uid: int = -1

    def __post_init__(self) -> None:
        if self.kind not in (ROOT, TTM, LEAF):
            raise ValueError(f"bad node kind {self.kind!r}")
        if self.kind != ROOT and self.mode is None:
            raise ValueError(f"{self.kind} node requires a mode")
        if self.kind == LEAF and self.children:
            raise ValueError("leaf nodes cannot have children")


class TTMTree:
    """A validated TTM-tree over ``n_modes`` modes."""

    def __init__(self, root: Node, n_modes: int, *, validate: bool = True) -> None:
        if root.kind != ROOT:
            raise ValueError("top node must have kind 'root'")
        self.root = root
        self.n_modes = int(n_modes)
        self.reindex()
        if validate:
            self.validate()

    # -- structure ----------------------------------------------------- #

    def reindex(self) -> None:
        """Assign preorder uids and cache node/parent lookup tables."""
        self._nodes: list[Node] = []
        self._parent: dict[int, int | None] = {}

        def visit(node: Node, parent_uid: int | None) -> None:
            node.uid = len(self._nodes)
            self._nodes.append(node)
            self._parent[node.uid] = parent_uid
            for child in node.children:
                visit(child, node.uid)

        visit(self.root, None)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in preorder (root first)."""
        return tuple(self._nodes)

    def node(self, uid: int) -> Node:
        return self._nodes[uid]

    def parent(self, node: Node) -> Node | None:
        puid = self._parent[node.uid]
        return None if puid is None else self._nodes[puid]

    def internal_nodes(self) -> Iterator[Node]:
        return (n for n in self._nodes if n.kind == TTM)

    def leaves(self) -> Iterator[Node]:
        return (n for n in self._nodes if n.kind == LEAF)

    @property
    def n_ttm_ops(self) -> int:
        """Number of TTM operations = number of internal nodes."""
        return sum(1 for _ in self.internal_nodes())

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges (memory bound driver)."""

        def d(node: Node) -> int:
            return 0 if not node.children else 1 + max(d(c) for c in node.children)

        return d(self.root)

    def root_path(self, order: Sequence[int]) -> tuple[Node, ...]:
        """The TTM nodes, root down, whose modes are ``order``'s leading
        modes: node ``i`` of the result outputs ``T x order[0] ... x
        order[i]``, exactly what a chain over ``order`` holds after step
        ``i``. Empty when no root child multiplies ``order[0]``; among
        same-mode siblings (chain trees) the first in list order."""
        path: list[Node] = []
        node = self.root
        for mode in order:
            node = next(
                (c for c in node.children if c.kind == TTM and c.mode == mode),
                None,
            )
            if node is None:
                break
            path.append(node)
        return tuple(path)

    def premultiplied_mask(self, node: Node) -> int:
        """Bitmask of modes applied on the path from the root *through* node.

        For a TTM node this includes its own mode (the paper's set ``P`` of
        the node); for the root it is 0; for a leaf it equals its parent's.
        """
        mask = 0
        cur: Node | None = node
        while cur is not None:
            if cur.kind == TTM:
                mask |= 1 << cur.mode
            cur = self.parent(cur)
        return mask

    # -- validation ------------------------------------------------------ #

    def validate(self) -> None:
        """Enforce the four defining properties of a TTM-tree (section 3.1)."""
        n = self.n_modes
        leaves = list(self.leaves())
        leaf_modes = sorted(leaf.mode for leaf in leaves)
        if leaf_modes != list(range(n)):
            raise ValueError(
                f"tree must have exactly one leaf per mode 0..{n - 1}, "
                f"got leaf modes {leaf_modes}"
            )
        for node in self.internal_nodes():
            if not 0 <= node.mode < n:
                raise ValueError(f"internal node mode {node.mode} out of range")
            if not node.children:
                raise ValueError("internal (ttm) node with no children")
        for leaf in leaves:
            path_mask = self.premultiplied_mask(leaf)
            expected = ((1 << n) - 1) ^ (1 << leaf.mode)
            if path_mask != expected:
                missing = [m for m in range(n) if not (path_mask >> m) & 1 and m != leaf.mode]
                raise ValueError(
                    f"path to leaf F~{leaf.mode} must apply every mode except "
                    f"{leaf.mode} exactly once; missing/duplicated: {missing or 'duplicate on path'}"
                )
            # exactly N-1 internal nodes on the path (no repeated modes)
            count = 0
            cur: Node | None = leaf
            while cur is not None:
                if cur.kind == TTM:
                    count += 1
                cur = self.parent(cur)
            if count != n - 1:
                raise ValueError(
                    f"path to leaf F~{leaf.mode} has {count} internal nodes, "
                    f"expected {n - 1}"
                )

    # -- serialization ----------------------------------------------------#

    def to_dict(self) -> dict:
        def enc(node: Node) -> dict:
            d: dict = {"kind": node.kind}
            if node.mode is not None:
                d["mode"] = node.mode
            if node.children:
                d["children"] = [enc(c) for c in node.children]
            return d

        return {"n_modes": self.n_modes, "root": enc(self.root)}

    @classmethod
    def from_dict(cls, d: dict) -> "TTMTree":
        def dec(nd: dict) -> Node:
            return Node(
                kind=nd["kind"],
                mode=nd.get("mode"),
                children=[dec(c) for c in nd.get("children", [])],
            )

        return cls(dec(d["root"]), n_modes=int(d["n_modes"]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TTMTree(n_modes={self.n_modes}, ttm_ops={self.n_ttm_ops})"

    def pretty(self, meta: TensorMeta | None = None) -> str:
        """ASCII rendering; with ``meta``, annotate cardinalities."""
        lines: list[str] = []

        def visit(node: Node, indent: int, premult: int) -> None:
            pad = "  " * indent
            if node.kind == ROOT:
                label = "T"
            elif node.kind == TTM:
                label = f"x{node.mode}"
                premult |= 1 << node.mode
            else:
                label = f"F~{node.mode}"
            if meta is not None and node.kind != LEAF:
                label += f"  |.|={meta.card_after(premult)}"
            lines.append(pad + label)
            for c in node.children:
                visit(c, indent + 1, premult)

        visit(self.root, 0, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# prior-work constructions (paper section 3.2)
# ---------------------------------------------------------------------- #


def _check_ordering(ordering: Sequence[int], n_modes: int) -> list[int]:
    ordering = list(as_int_tuple(ordering))
    if sorted(ordering) != list(range(n_modes)):
        raise ValueError(
            f"ordering must be a permutation of 0..{n_modes - 1}, got {ordering}"
        )
    return ordering


def chain_tree(n_modes: int, ordering: Sequence[int] | None = None) -> TTMTree:
    """The naive scheme: N independent chains, ``N (N-1)`` TTMs.

    ``ordering`` is the paper's *mode ordering* (section 3.2): the chain for
    ``F~_n`` multiplies the other modes in the order they appear in
    ``ordering``. Default: natural order ``0..N-1``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    order = _check_ordering(
        ordering if ordering is not None else range(n_modes), n_modes
    )
    root = Node(ROOT)
    for target in order:
        chain_modes = [m for m in order if m != target]
        attach = root
        for m in chain_modes:
            nxt = Node(TTM, mode=m)
            attach.children.append(nxt)
            attach = nxt
        attach.children.append(Node(LEAF, mode=target))
    return TTMTree(root, n_modes)


def balanced_tree(n_modes: int, ordering: Sequence[int] | None = None) -> TTMTree:
    """Kaya-Ucar divide-and-conquer tree with ~``N log N`` TTMs.

    Split the modes into halves A, B (``|A| = floor(N/2)``); under the
    current attachment point hang (i) a chain multiplying all of A followed
    by the recursive subtree computing B's factors, and (ii) symmetrically a
    chain of B followed by the subtree for A. The paper notes mode ordering
    does not measurably help balanced trees, so the default natural order is
    what the evaluation uses.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    order = _check_ordering(
        ordering if ordering is not None else range(n_modes), n_modes
    )

    def build(attach: Node, to_compute: list[int]) -> None:
        if len(to_compute) == 1:
            attach.children.append(Node(LEAF, mode=to_compute[0]))
            return
        first, second = balanced_split(to_compute)
        for chain_part, recurse_part in ((first, second), (second, first)):
            cur = attach
            for m in chain_part:
                nxt = Node(TTM, mode=m)
                cur.children.append(nxt)
                cur = nxt
            build(cur, recurse_part)

    root = Node(ROOT)
    if n_modes == 1:
        root.children.append(Node(LEAF, mode=order[0]))
    else:
        build(root, order)
    return TTMTree(root, n_modes)
