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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.backends import sketch as rsk
from repro.backends.base import ExecutionBackend
from repro.core.meta import TensorMeta
from repro.core.trees import Node, TTMTree
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
    tree: TTMTree, meta: TensorMeta, scheme=None
) -> tuple[Step, ...]:
    """Compile one HOOI invocation's TTM component + SVDs.

    With a grid ``scheme`` each TTM child is preceded by a regrid onto its
    assigned grid (each child regrids its own copy of the parent's output,
    matching the model's per-child ``|In(u)|`` charge); without one the
    schedule is grid-free and runs on any backend's native layout.
    """
    steps: list[Step] = []

    def visit(node: Node, slot: str) -> None:
        for child in node.children:
            if child.kind == "ttm":
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
                out = f"n{child.uid}"
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
    order: Sequence[int], name: str, *, grids=None, extract=None
) -> tuple[Step, ...]:
    """One TTM chain over ``order``, the working tensor shrinking as it goes.

    Per chain position: a regrid onto ``grids[i]`` when a grid scheme is
    given; the step ``extract(slot, mode)`` when the chain finds its own
    factors (from the working tensor, so later modes see ever smaller
    ones); the ``ttm``. A step that makes a slot frees the one it replaces.
    """
    steps: list[Step] = []
    slot = ROOT_SLOT

    def advance(step: Step) -> None:
        nonlocal slot
        steps.append(step)
        if slot != ROOT_SLOT:
            steps.append(Step(op="free", src=slot))
        slot = step.dst

    for i, mode in enumerate(order):
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
                op="ttm", src=slot, dst=f"{name}:{i}", mode=mode,
                tag=f"ttm{mode}",
            )
        )
    return tuple(steps)


def compile_core_steps(
    order: Sequence[int],
    core_scheme: Sequence[Sequence[int]] | None = None,
) -> tuple[Step, ...]:
    """Compile the new-core chain ``G~ = T x F~^T ...`` in ``order``.

    With ``core_scheme`` (one grid per chain position) the tensor is
    regridded ahead of the steps that ask for it — the dynamic algorithm's
    path-DP gridding. Tags are ``regrid{i}`` / ``ttm{mode}``.
    """
    return _compile_chain(order, "core", grids=core_scheme)


def compile_sthosvd_steps(
    order: Sequence[int], meta: TensorMeta
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
    )


def compile_rand_steps(
    order: Sequence[int],
    meta: TensorMeta,
    *,
    method: str,
    oversample: int = 5,
    power_iters: int = 0,
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
    )


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
    """
    if new is None:
        new = factors
    slots = {ROOT_SLOT: handle}
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
                new[n] = rsk.factor_from_matrix(unfold(sketches[n], n), k)
            core = rsk.solve_core(
                sketches[-1], specs[-1], [new[n] for n in range(len(specs) - 1)]
            )
        else:  # pragma: no cover - compile emits only the six ops
            raise AssertionError(f"unknown step op {step.op!r}")
    return slots.get(last), norm_sq, core


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
    return rsk.factor_from_matrix(w_mat, step.k), norm_sq


def run_sweep(
    backend: ExecutionBackend,
    handle,
    factors: Sequence[np.ndarray],
    tree_steps: Sequence[Step],
    core_steps: Sequence[Step],
    *,
    tag: str = "hooi",
):
    """One HOOI invocation (Figure 2): the tree program, then the core chain.

    Returns ``(new factors ordered by mode, core handle)``; the core
    chain's records carry the tag ``{tag}:core``.
    """
    new: dict[int, np.ndarray] = {}
    run_steps(backend, handle, tree_steps, factors, new, tag=tag)
    if sorted(new) != list(range(len(factors))):
        raise AssertionError("tree execution did not produce every factor")
    ordered = [new[m] for m in range(len(factors))]
    core, _, _ = run_steps(
        backend, handle, core_steps, ordered, tag=f"{tag}:core"
    )
    return ordered, core
