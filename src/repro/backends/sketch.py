"""Shared math for randomized (sketched) Tucker decomposition.

Implements the building blocks of randomized-range-finder STHOSVD and
the single-pass sketching variant of Minster, Li & Ballard ("Parallel
Randomized Tucker Decomposition Algorithms", PAPERS.md):

* a :class:`SketchSpec` names one sketch of the input: which mode is
  *kept* (uncompressed) and one Gaussian test matrix per compressed
  mode. Contracting the input with all the test matrices yields a small
  tensor ``W = Y x_{m != n} Omega_m`` whose mode-``n`` unfolding spans
  (approximately) the top left-singular subspace of ``Y_(n)``;
* the spec builders, which draw the test matrices;
* sign-fixed orthonormalization for power iterations, and the small
  least-squares core solve of the single-pass variant.

What a spec makes of a tensor — its shape, a block's contribution (the
same TTM chain with the test matrices column-restricted to the block's
global ranges; block contributions simply **add**) and its cost — is
kernel arithmetic and lives in :mod:`repro.tensor.kernels`, where every
backend and the virtual cluster reach it. Factors come from
:func:`repro.tensor.linalg.gram_factor`, the exact path's routine.

Determinism contract: all test matrices are drawn host-side from one
``numpy.random.default_rng(seed)`` in a documented fixed order (the
spec builders below), in float64, then cast to the working dtype — so
every backend contracts the *same* matrices and a given ``(seed,
backend)`` pair is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tensor.kernels import sketch_block
from repro.tensor.linalg import deterministic_sign
from repro.tensor.ttm import ttm_chain

__all__ = [
    "SketchSpec",
    "core_sketch_spec",
    "mode_sketch_spec",
    "orthonormal_cols",
    "single_pass_specs",
    "sketch_arrays",
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


def sketch_arrays(tensor: np.ndarray, specs) -> tuple[list[np.ndarray], float]:
    """Dense reference: all sketches plus ``||Y||_F^2`` in one pass — the
    one block that is the whole tensor."""
    tensor = np.asarray(tensor)
    ranges = tuple((0, int(d)) for d in tensor.shape)
    return sketch_block(tensor, specs, tensor.shape, ranges)


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
