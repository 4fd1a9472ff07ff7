"""Shared math for randomized (sketched) Tucker decomposition.

Implements the building blocks of randomized-range-finder STHOSVD and
the single-pass sketching variant of Minster, Li & Ballard ("Parallel
Randomized Tucker Decomposition Algorithms", PAPERS.md):

* a :class:`SketchSpec` names one sketch of the input: which mode is
  *kept* (uncompressed) and one Gaussian test matrix per compressed
  mode. Contracting the input with all the test matrices yields a small
  tensor ``W = Y x_{m != n} Omega_m`` whose mode-``n`` unfolding spans
  (approximately) the top left-singular subspace of ``Y_(n)``;
* :func:`add_block_contribution` is the one kernel every backend blocks
  over: a *block's* contribution to a sketch is the same TTM chain with
  the test matrices column-restricted to the block's global ranges, and
  block contributions simply **add** — which is what makes a sketch a
  single read pass over spilled blocks and a single reduced-volume
  allreduce on the virtual cluster;
* factor extraction, sign-fixed orthonormalization for power
  iterations, and the small least-squares core solve of the single-pass
  variant.

Determinism contract: all test matrices are drawn host-side from one
``numpy.random.default_rng(seed)`` in a documented fixed order (the
spec builders below), in float64, then cast to the working dtype — so
every backend contracts the *same* matrices and a given ``(seed,
backend)`` pair is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tensor.linalg import (
    deterministic_sign,
    leading_left_singular_vectors,
)
from repro.tensor.ttm import ttm_chain

__all__ = [
    "SketchSpec",
    "add_block_contribution",
    "core_sketch_spec",
    "factor_from_matrix",
    "mode_sketch_spec",
    "orthonormal_cols",
    "out_shape",
    "single_pass_specs",
    "sketch_arrays",
    "sketch_flops",
    "sketch_width",
    "solve_core",
]


@dataclass(frozen=True, eq=False)
class SketchSpec:
    """One sketch: keep ``mode``, compress every mode in ``omegas``.

    ``mode`` is the kept (uncompressed) mode, or ``-1`` for a *core*
    sketch that compresses every mode. ``omegas`` maps each compressed
    mode ``m`` to its test matrix of shape ``(s_m, L_m)``.
    """

    mode: int
    omegas: dict[int, np.ndarray] = field(repr=False)


def sketch_width(k: int, p: int, dim: int) -> int:
    """Oversampled sketch width ``min(k + p, dim)`` (clamped, >= 1).

    Oversampling past the mode length buys nothing (the range is already
    exact), so ``rank + p > dim`` clamps instead of crashing.
    """
    return max(1, min(int(k) + int(p), int(dim)))


def out_shape(dims, spec: SketchSpec) -> tuple[int, ...]:
    """The sketch tensor's shape: ``s_m`` on compressed modes."""
    return tuple(
        spec.omegas[m].shape[0] if m in spec.omegas else int(d)
        for m, d in enumerate(dims)
    )


def _draw(rng: np.random.Generator, rows: int, cols: int, dtype) -> np.ndarray:
    matrix = rng.standard_normal((rows, cols))
    return np.ascontiguousarray(matrix.astype(dtype, copy=False))


def mode_sketch_spec(
    rng: np.random.Generator,
    dims,
    mode: int,
    k: int,
    p: int,
    dtype,
) -> SketchSpec:
    """The rsthosvd sketch for one mode at the input's *current* dims.

    Draw order (the determinism contract): one ``(s_m, L_m)`` Gaussian
    per compressed mode, modes ascending.
    """
    dims = tuple(int(d) for d in dims)
    omegas = {
        m: _draw(rng, sketch_width(k, p, dims[m]), dims[m], dtype)
        for m in range(len(dims))
        if m != mode
    }
    return SketchSpec(mode=int(mode), omegas=omegas)


def core_sketch_spec(
    rng: np.random.Generator,
    dims,
    core,
    p: int,
    dtype,
) -> SketchSpec:
    """The single-pass *core* sketch: compress every mode.

    Core sketch widths follow Minster et al.: ``t_m = min(2 s_m + 1,
    L_m)`` with ``s_m = min(k_m + p, L_m)``, so the small least-squares
    solve recovering the core is overdetermined. Draw order: one
    ``(t_m, L_m)`` Gaussian per mode, modes ascending.
    """
    dims = tuple(int(d) for d in dims)
    omegas = {}
    for m, (d, k) in enumerate(zip(dims, core)):
        s = sketch_width(k, p, d)
        omegas[m] = _draw(rng, min(2 * s + 1, d), d, dtype)
    return SketchSpec(mode=-1, omegas=omegas)


def single_pass_specs(
    rng: np.random.Generator,
    dims,
    core,
    p: int,
    dtype,
) -> list[SketchSpec]:
    """All sp-rsthosvd specs: one per mode (ascending), then the core.

    Every spec is materialized up front so one pass over the input's
    blocks accumulates all of them.
    """
    specs = [
        mode_sketch_spec(rng, dims, n, core[n], p, dtype)
        for n in range(len(dims))
    ]
    specs.append(core_sketch_spec(rng, dims, core, p, dtype))
    return specs


def add_block_contribution(
    out: np.ndarray,
    block: np.ndarray,
    spec: SketchSpec,
    ranges,
) -> np.ndarray:
    """Accumulate one block's sketch contribution into ``out``.

    ``ranges`` gives the block's global ``(lo, hi)`` per mode; each test
    matrix is column-restricted to its mode's range, and the result adds
    into ``out`` at the kept mode's slice (everywhere, for a core
    sketch). Accumulation order is the caller's responsibility — every
    backend adds blocks in ascending block order so blocked results are
    bitwise reproducible for a fixed worker count.
    """
    matrices, modes = [], []
    for m in sorted(spec.omegas):
        lo, hi = ranges[m]
        matrices.append(spec.omegas[m][:, lo:hi])
        modes.append(m)
    contribution = ttm_chain(block, matrices, modes)
    if spec.mode >= 0:
        lo, hi = ranges[spec.mode]
        index = [slice(None)] * out.ndim
        index[spec.mode] = slice(lo, hi)
        out[tuple(index)] += contribution
    else:
        out += contribution
    return out


def sketch_arrays(tensor: np.ndarray, specs) -> tuple[list[np.ndarray], float]:
    """Dense reference: all sketches plus ``||Y||_F^2`` in one logical pass."""
    tensor = np.asarray(tensor)
    ranges = tuple((0, int(d)) for d in tensor.shape)
    outs = []
    for spec in specs:
        out = np.zeros(out_shape(tensor.shape, spec), dtype=tensor.dtype)
        add_block_contribution(out, tensor, spec, ranges)
        outs.append(out)
    norm_sq = float(np.linalg.norm(tensor.ravel())) ** 2
    return outs, norm_sq


def sketch_flops(dims, spec: SketchSpec) -> float:
    """Modeled multiply-adds of one sketch's TTM chain (ascending modes)."""
    current = [float(d) for d in dims]
    total = 0.0
    for m in sorted(spec.omegas):
        s = float(spec.omegas[m].shape[0])
        total += s * float(np.prod(current))
        current[m] = s
    return total


def factor_from_matrix(w_mat: np.ndarray, k: int) -> np.ndarray:
    """Leading ``k`` left singular vectors of an unfolded sketch.

    Gram+EVD route with the repo's deterministic sign convention — the
    same extraction the exact path uses, so factors are comparable.
    """
    return leading_left_singular_vectors(w_mat, k, method="gram")


def orthonormal_cols(matrix: np.ndarray) -> np.ndarray:
    """Sign-fixed orthonormal basis of ``matrix``'s column space (QR)."""
    q, _ = np.linalg.qr(np.asarray(matrix))
    return np.ascontiguousarray(deterministic_sign(q))


def solve_core(
    h: np.ndarray,
    core_spec: SketchSpec,
    factors,
) -> np.ndarray:
    """Recover the core from the core sketch (single-pass variant).

    Solves the mode-wise least-squares problems ``H ~= G x_n (Phi_n
    U_n)`` for ``G`` via pseudo-inverses: ``G = H x_n pinv(Phi_n U_n)``.
    """
    h = np.asarray(h)
    matrices = [
        np.linalg.pinv(core_spec.omegas[n] @ np.asarray(factors[n]))
        for n in range(h.ndim)
    ]
    return ttm_chain(h, matrices, list(range(h.ndim))).astype(
        h.dtype, copy=False
    )
