"""Backend-neutral execution schedules.

Planning (TTM-tree + grid DP) and execution are decoupled in the paper; the
schedule is the artifact that crosses the boundary. Every phase of a run —
HOOI tree, core chain, STHOSVD pass, randomized pass — is *compiled once*
into a flat tuple of :class:`Step` ops (regrid / ttm / svd / sketch /
spsketch / free over named slots), and the one interpreter here,
:func:`run_steps`, replays any such program against any
:class:`~repro.backends.base.ExecutionBackend`. The depth-first slot
discipline keeps at most ``depth`` intermediates alive, the in-order bound
of section 3.1; ledger tags are reconstructed as ``{prefix}:{step.tag}``
so executed volumes aggregate on one vocabulary (``hooi:it0:ttm:n3``,
``hooi:it0:svd:m2``, ``hooi:it0:core:ttm1``, ``sthosvd:svd0``...).

Reuse does not stop at the invocation boundary. A sequentially
truncating chain (STHOSVD, ``rsthosvd``, the core chain) multiplies the
input by the very factors the next sweep's tree reads; where its leading
modes are a root path of that tree, the tree's outputs on the path *are*
the chain's. A :class:`Handoff` compiles the pair: the chain with
``keep`` (path outputs the tree still reads go to the tree's own slots
and are not freed) and the warm tree (``compile_tree_steps(carried=...)``:
no ``regrid``/``ttm`` on the path, carried subtree first). The slots
travel between the two programs in the caller's run-local ``carry`` dict
(:func:`run_steps`); nothing here holds state. :func:`handoff_core_order`
picks the root-to-leaf path a core chain follows so that every sweep but
the last permitted one has a prefix to hand over. Handoffs are grid-free
and run only where ``regrid`` is the identity — on the virtual cluster
each program regrids its own copy and the paper's per-invocation volumes
stay exactly as modelled.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from repro.backends import sketch as rsk
from repro.backends.base import ExecutionBackend
from repro.core.cost import node_costs
from repro.core.memory import carried_nodes, traversal_peak_cards
from repro.core.meta import TensorMeta
from repro.core.trees import Node, TTMTree
from repro.tensor.kernels import gram_block
from repro.tensor.linalg import gram_factor
from repro.tensor.unfold import unfold
from repro.util.dtypes import as_float

#: slot name of the schedule's input tensor.
ROOT_SLOT = "root"

#: the randomized methods the schedule layer can compile.
RAND_METHODS = ("rsthosvd", "sp-rsthosvd")


@dataclass(frozen=True)
class Step:
    """One op of a compiled schedule.

    ``op`` is one of ``"regrid"`` (src -> dst on ``grid``), ``"ttm"``
    (src -> dst along ``mode`` by the mode's factor transpose), ``"svd"``
    (read src, emit the mode-``mode`` rank-``k`` factor), ``"sketch"``
    (randomized range-finder for ``mode`` with oversampling ``p`` and
    ``q`` power iterations), ``"spsketch"`` (every single-pass sketch in
    one step, to the core ``ranks``) or ``"free"`` (drop src). ``tag`` is
    the ledger tag suffix.
    """

    op: str
    src: str
    dst: str = ""
    mode: int = -1
    k: int = 0
    grid: tuple[int, ...] = ()
    tag: str = ""
    p: int = 0
    q: int = 0
    ranks: tuple[int, ...] = ()


def check_factors(
    factors: Sequence[np.ndarray],
    meta: TensorMeta,
    dtype=None,
) -> list[np.ndarray]:
    """Validate factor shapes against ``meta``; cast to the working dtype."""
    factors = [as_float(f, dtype) for f in factors]
    if len(factors) != meta.ndim:
        raise ValueError(f"need {meta.ndim} factors, got {len(factors)}")
    for n, f in enumerate(factors):
        if f.shape != (meta.dims[n], meta.core[n]):
            raise ValueError(
                f"factor {n} has shape {f.shape}, expected "
                f"{(meta.dims[n], meta.core[n])}"
            )
    return factors


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #


def compile_tree_steps(
    tree: TTMTree, meta: TensorMeta, scheme=None, carried: Sequence[Node] = ()
) -> tuple[Step, ...]:
    """Compile one HOOI invocation's TTM component + SVDs.

    With a grid ``scheme`` each TTM child is preceded by a regrid onto its
    assigned grid (each child regrids its own copy of the parent's output,
    matching the model's per-child ``|In(u)|`` charge); without one the
    schedule is grid-free and runs on any backend's native layout.

    ``carried`` makes the program *warm*: a root path (see
    :meth:`TTMTree.root_path`) whose outputs the chain that ran just
    before already computed. Its nodes get no ``regrid`` / ``ttm``; the
    ones :func:`carried_nodes` names are read from slots the caller
    supplies (``run_steps(carry=...)``) and freed once their subtree is
    done, the others are never touched. The carried subtree goes first at
    every level, so the carry never stacks on another subtree's
    intermediates.
    """
    steps: list[Step] = []
    on_path = {node.uid for node in carried}
    unread = on_path - {node.uid for node in carried_nodes(carried)}

    def visit(node: Node, slot: str) -> None:
        for child in sorted(node.children, key=lambda c: c.uid not in on_path):
            if child.kind == "ttm":
                out = f"n{child.uid}"
                if child.uid in unread:
                    # its one child is carried too: no slot to read or free
                    visit(child, "")
                    continue
                if child.uid not in on_path:
                    src = slot
                    if scheme is not None:
                        src = f"n{child.uid}:in"
                        steps.append(
                            Step(
                                op="regrid",
                                src=slot,
                                dst=src,
                                grid=tuple(scheme.grid_of(child.uid)),
                                tag=f"regrid:n{child.uid}",
                            )
                        )
                    steps.append(
                        Step(
                            op="ttm",
                            src=src,
                            dst=out,
                            mode=child.mode,
                            tag=f"ttm:n{child.uid}",
                        )
                    )
                    if src != slot:
                        steps.append(Step(op="free", src=src))
                visit(child, out)
                steps.append(Step(op="free", src=out))
            else:
                steps.append(
                    Step(
                        op="svd",
                        src=slot,
                        mode=child.mode,
                        k=meta.core[child.mode],
                        tag=f"svd:m{child.mode}",
                    )
                )

    visit(tree.root, ROOT_SLOT)
    return tuple(steps)


def _compile_chain(
    order: Sequence[int], name: str, *, grids=None, extract=None,
    keep: Sequence[str] = (),
) -> tuple[Step, ...]:
    """One TTM chain over ``order``, the working tensor shrinking as it goes.

    Per chain position: a regrid onto ``grids[i]`` when a grid scheme is
    given; the step ``extract(slot, mode)`` when the chain finds its own
    factors (from the working tensor, so later modes see ever smaller
    ones); the ``ttm``. A step that makes a slot frees the one it replaces
    — unless ``keep`` names it: position ``i``'s output goes to the slot
    ``keep[i]`` (when non-empty) and stays live after the program, for the
    next sweep's warm tree (a :class:`Handoff`).
    """
    steps: list[Step] = []
    slot = ROOT_SLOT

    def advance(step: Step) -> None:
        nonlocal slot
        steps.append(step)
        if slot != ROOT_SLOT and slot not in keep:
            steps.append(Step(op="free", src=slot))
        slot = step.dst

    for i, (mode, kept) in enumerate(zip_longest(order, keep, fillvalue="")):
        if grids is not None:
            advance(
                Step(
                    op="regrid", src=slot, dst=f"{name}:g{i}",
                    grid=tuple(grids[i]), tag=f"regrid{i}",
                )
            )
        if extract is not None:
            steps.append(extract(slot, mode))
        advance(
            Step(
                op="ttm", src=slot, dst=kept or f"{name}:{i}", mode=mode,
                tag=f"ttm{mode}",
            )
        )
    return tuple(steps)


def compile_core_steps(
    order: Sequence[int],
    core_scheme: Sequence[Sequence[int]] | None = None,
    keep: Sequence[str] = (),
) -> tuple[Step, ...]:
    """Compile the new-core chain ``G~ = T x F~^T ...`` in ``order``.

    With ``core_scheme`` (one grid per chain position) the tensor is
    regridded ahead of the steps that ask for it — the dynamic algorithm's
    path-DP gridding. Tags are ``regrid{i}`` / ``ttm{mode}``.
    """
    return _compile_chain(order, "core", grids=core_scheme, keep=keep)


def compile_sthosvd_steps(
    order: Sequence[int], meta: TensorMeta, keep: Sequence[str] = ()
) -> tuple[Step, ...]:
    """Compile one STHOSVD pass: a TTM chain with an ``svd`` before each
    step — the paper's "can be recast for STHOSVD as well", taken
    literally. Tags are ``svd{mode}`` / ``ttm{mode}``."""
    return _compile_chain(
        order,
        "sthosvd",
        extract=lambda slot, mode: Step(
            op="svd", src=slot, mode=mode, k=meta.core[mode],
            tag=f"svd{mode}",
        ),
        keep=keep,
    )


def compile_rand_steps(
    order: Sequence[int],
    meta: TensorMeta,
    *,
    method: str,
    oversample: int = 5,
    power_iters: int = 0,
    keep: Sequence[str] = (),
) -> tuple[Step, ...]:
    """Compile a randomized initialization into Step ops.

    ``rsthosvd`` is the STHOSVD chain with a ``sketch`` where the ``svd``
    was: per mode one randomized range finder, then the truncating
    ``ttm`` — so later sketches run on already-shrunk data, the same win
    the exact path gets. ``sp-rsthosvd`` is one ``spsketch`` step: every
    mode sketch plus the core sketch accumulate in a single pass over the
    input, which is never modified (HOSVD-style, no sequential
    truncation).
    """
    if method not in RAND_METHODS:
        raise ValueError(
            f"method must be one of {RAND_METHODS}, got {method!r}"
        )
    oversample = int(oversample)
    power_iters = int(power_iters)
    if oversample < 0:
        raise ValueError(f"oversample must be >= 0, got {oversample}")
    if power_iters < 0:
        raise ValueError(f"power_iters must be >= 0, got {power_iters}")
    if method == "sp-rsthosvd":
        return (
            Step(
                op="spsketch", src=ROOT_SLOT, p=oversample,
                ranks=tuple(meta.core), tag="sketch",
            ),
        )
    return _compile_chain(
        order,
        "rand",
        extract=lambda slot, mode: Step(
            op="sketch", src=slot, mode=mode, k=meta.core[mode],
            p=oversample, q=power_iters, tag=f"sketch:m{mode}",
        ),
        keep=keep,
    )


# --------------------------------------------------------------------- #
# cross-phase reuse
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Handoff:
    """What a chain over ``order`` hands the tree program that follows it.

    The chain's first outputs are the outputs of the tree's root path with
    the same modes — same tensor, same factors, same kernel — so the
    chain keeps the ones the tree reads (``keep``: per chain position the
    tree slot the output goes to, ``""`` where it is freed as usual) and
    the *warm* ``tree_steps`` skip the path's TTMs. ``chain_steps`` is the
    keeping chain; ``reused`` lists the tags of the skipped ``ttm`` steps
    and ``flops_reused`` their multiply-adds, which no ledger record
    carries any more. Both programs are grid-free: a handoff only runs
    where ``regrid`` is the identity.
    """

    order: tuple[int, ...]
    keep: tuple[str, ...]
    chain_steps: tuple[Step, ...]
    tree_steps: tuple[Step, ...]
    reused: tuple[str, ...]
    flops_reused: int


def compile_handoff(
    tree: TTMTree, meta: TensorMeta, order: Sequence[int], chain
) -> Handoff | None:
    """Compile the handoff from ``chain(order, keep=...)`` to ``tree``;
    ``None`` when no root path shares the chain's leading modes."""
    path = tree.root_path(order)
    if not path:
        return None
    kept = {node.uid for node in carried_nodes(path)}
    keep = tuple(f"n{n.uid}" if n.uid in kept else "" for n in path)
    costs = node_costs(tree, meta)
    return Handoff(
        order=tuple(order),
        keep=keep,
        chain_steps=chain(order, keep=keep),
        tree_steps=compile_tree_steps(tree, meta, carried=path),
        reused=tuple(f"ttm:n{node.uid}" for node in path),
        flops_reused=sum(costs[node.uid]["flops"] for node in path),
    )


def handoff_core_order(tree: TTMTree, meta: TensorMeta) -> tuple[int, ...]:
    """Core-chain order for a sweep that another may follow.

    The modes of a root-to-leaf path, then the leaf's own: every TTM of
    the chain but the last is then a TTM the next tree would have issued,
    so the pair costs the tree plus that one last step, ``K_leaf`` times
    the leaf's input cardinality — the price compared here. Ties go to
    the smaller modeled peak (:func:`traversal_peak_cards`), then to
    preorder.
    """
    costs = node_costs(tree, meta)

    def chain_order(leaf: Node) -> tuple[int, ...]:
        modes = [leaf.mode]
        node = tree.parent(leaf)
        while node.kind == "ttm":
            modes.append(node.mode)
            node = tree.parent(node)
        return tuple(reversed(modes))

    def price(leaf: Node):
        return (
            meta.core[leaf.mode] * costs[leaf.uid]["in_card"],
            traversal_peak_cards(tree, meta, chain_order(leaf)),
            leaf.uid,
        )

    return chain_order(min(tree.leaves(), key=price))


# --------------------------------------------------------------------- #
# interpretation
# --------------------------------------------------------------------- #


def run_steps(
    backend: ExecutionBackend,
    handle,
    steps: Sequence[Step],
    factors,
    new=None,
    *,
    tag: str,
    rng: np.random.Generator | None = None,
    dtype=None,
    carry: dict | None = None,
):
    """Replay a compiled Step program against any backend.

    ``ttm`` steps multiply by the transpose of ``factors[mode]``; ``svd``
    / ``sketch`` / ``spsketch`` steps store the factor they extract in
    ``new[mode]``. Which mappings those are is a program's only semantic
    switch: the Jacobi tree passes two (every chain reads the *current*
    factors, as Figure 2 specifies — tree reuse requires it), the
    sequentially truncating programs (STHOSVD, ``rsthosvd``, the core
    chain) pass one, so each ``ttm`` truncates by the factor just found.

    Returns ``(final, norm_sq, core)``: the handle the last ``ttm`` /
    ``regrid`` produced (``None`` for a tree, which frees all it makes),
    and — ``None`` unless a sketch op ran — the input's squared norm, a
    free by-product of the sketch pass, and an ``spsketch``'s host-solved
    core. Sketch ops draw their test matrices from ``rng`` host-side, in
    ``dtype``, at each step's then-current dims, so every backend
    contracts identical Gaussians and seed-determinism holds per backend.

    ``carry`` is the run-local half of a :class:`Handoff`: the named slots
    one program leaves for the next. Its entries seed this program's slots
    (a warm tree reads and frees them) and, on return, it holds exactly
    what this program kept (a keeping chain's outputs). The interpreter
    works *in* that dict, so whoever owns it releases every intermediate
    by clearing it — also after a kernel raised mid-program.
    """
    if new is None:
        new = factors
    slots = carry if carry is not None else {}
    slots[ROOT_SLOT] = handle
    last = ROOT_SLOT
    norm_sq = core = None
    for step in steps:
        full_tag = f"{tag}:{step.tag}" if step.tag else tag
        if step.op == "ttm":
            slots[step.dst] = backend.ttm(
                slots[step.src], factors[step.mode].T, step.mode, tag=full_tag
            )
            last = step.dst
        elif step.op == "svd":
            new[step.mode] = backend.leading_factor(
                slots[step.src], step.mode, step.k, tag=full_tag
            )
        elif step.op == "free":
            slots.pop(step.src, None)
        elif step.op == "regrid":
            slots[step.dst] = backend.regrid(
                slots[step.src], step.grid, tag=full_tag
            )
            last = step.dst
        elif step.op == "sketch":
            new[step.mode], part = _range_finder(
                backend, slots[step.src], step, full_tag, rng, dtype
            )
            if norm_sq is None:
                norm_sq = part
        elif step.op == "spsketch":
            src = slots[step.src]
            dims = backend.shape(src)
            specs = rsk.single_pass_specs(rng, dims, step.ranks, step.p, dtype)
            sketches, norm_sq = backend.sketch(src, specs, tag=full_tag)
            for n, k in enumerate(step.ranks):
                new[n] = gram_factor(gram_block(sketches[n], n), k)
            core = rsk.solve_core(
                sketches[-1], specs[-1], [new[n] for n in range(len(specs) - 1)]
            )
        else:  # pragma: no cover - compile emits only the six ops
            raise AssertionError(f"unknown step op {step.op!r}")
    final = slots.pop(last, None)
    slots.pop(ROOT_SLOT, None)
    return final, norm_sq, core


def _range_finder(backend, src, step: Step, tag: str, rng, dtype):
    """One ``sketch`` step: the randomized range of ``src``'s mode
    unfolding, sharpened by ``step.q`` power iterations; returns the
    factor and the squared norm the sketch pass accumulated."""
    spec = rsk.mode_sketch_spec(
        rng, backend.shape(src), step.mode, step.k, step.p, dtype
    )
    (w,), norm_sq = backend.sketch(src, [spec], tag=tag)
    w_mat = unfold(w, step.mode)
    for j in range(step.q):
        q_mat = rsk.orthonormal_cols(w_mat)
        z = backend.ttm(
            src,
            np.ascontiguousarray(q_mat.T),
            step.mode,
            tag=f"{tag}:power{j}",
        )
        w_mat = backend.cross_gram(
            src, z, step.mode, tag=f"{tag}:power{j}:xgram"
        )
        del z
    return gram_factor(w_mat @ w_mat.T, step.k), norm_sq


def run_sweep(
    backend: ExecutionBackend,
    handle,
    factors: Sequence[np.ndarray],
    tree_steps: Sequence[Step],
    core_steps: Sequence[Step],
    *,
    tag: str = "hooi",
    carry: dict | None = None,
):
    """One HOOI invocation (Figure 2): the tree program, then the core chain.

    Returns ``(new factors ordered by mode, core handle)``; the core
    chain's records carry the tag ``{tag}:core``. With a ``carry`` (see
    :func:`run_steps`) the tree program consumes what the previous chain
    kept in it and the core chain refills it.
    """
    new: dict[int, np.ndarray] = {}
    run_steps(backend, handle, tree_steps, factors, new, tag=tag, carry=carry)
    if sorted(new) != list(range(len(factors))):
        raise AssertionError("tree execution did not produce every factor")
    ordered = [new[m] for m in range(len(factors))]
    core, _, _ = run_steps(
        backend, handle, core_steps, ordered, tag=f"{tag}:core", carry=carry
    )
    return ordered, core
