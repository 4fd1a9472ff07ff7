"""The local kernels: each one's arithmetic, written once for every executor.

The paper's engine is two local kernels (the TTM and the Gram feeding the
EVD) wrapped in collectives; the randomized methods add a sketch, a
cross-Gram and the norm. The shared-memory backends run the functions
below on their blocks (through ``blockkernels.KERNELS``), the virtual
cluster on each rank's brick, the resident paths on the whole tensor.

A leaf: nothing here imports :mod:`repro.backends` or :mod:`repro.dist`
(``import repro`` loads ``repro.dist`` first, so either would be circular).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.ttm import ttm, ttm_chain
from repro.tensor.unfold import unfold

__all__ = [
    "add_block_contribution",
    "gram_block",
    "norm_block",
    "out_shape",
    "sketch_block",
    "sketch_flops",
    "ttm_block",
    "xgram_block",
]


def ttm_block(
    x: np.ndarray, matrix: np.ndarray, mode: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``x x_mode matrix`` of one block (cut along any other mode),
    written into ``out`` — the block's slice of the sink — when given."""
    return ttm(x, matrix, mode, out)


def gram_block(
    x: np.ndarray, mode: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``U U^T`` of the block's mode unfolding, into ``out`` (``L x L``,
    the block's dtype) when given."""
    u = unfold(x, mode)
    return np.matmul(u, u.T, out=out)


def xgram_block(a: np.ndarray, b: np.ndarray, mode: int) -> np.ndarray:
    """``unfold(a) @ unfold(b).T`` of two blocks cut along the same axes."""
    ua = unfold(a, mode)
    ub = unfold(b, mode)
    return ua @ ub.T


def norm_block(piece: np.ndarray) -> float:
    """Squared norm of a flat piece."""
    return float(np.dot(piece, piece))


def sketch_block(x: np.ndarray, specs, dims, ranges):
    """One block's full-size partial of every sketch, plus its norm partial.

    ``ranges`` is the block's global ``(lo, hi)`` per mode of the
    ``dims``-shaped tensor; computing every spec from the block while it
    is resident is what makes a sketch a single read pass.
    """
    x = np.ascontiguousarray(x)
    contribs = []
    for spec in specs:
        out = np.zeros(out_shape(dims, spec), dtype=x.dtype)
        add_block_contribution(out, x, spec, ranges)
        contribs.append(out)
    return contribs, norm_block(x.reshape(-1))


# what a ``repro.backends.sketch.SketchSpec`` makes of a tensor


def out_shape(dims, spec) -> tuple[int, ...]:
    """The sketch tensor's shape: ``s_m`` on compressed modes."""
    return tuple(
        spec.omegas[m].shape[0] if m in spec.omegas else int(d)
        for m, d in enumerate(dims)
    )


def add_block_contribution(
    out: np.ndarray,
    block: np.ndarray,
    spec,
    ranges,
) -> np.ndarray:
    """Accumulate one block's sketch contribution into ``out``.

    ``ranges`` gives the block's global ``(lo, hi)`` per mode; each test
    matrix is column-restricted to its mode's range, and the result adds
    into ``out`` at the kept mode's slice (everywhere, for a core
    sketch). Block contributions simply add: a sketch is one read pass.
    Every executor adds blocks in ascending order, so blocked results
    are bitwise reproducible for a fixed worker count.
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


def sketch_flops(dims, spec) -> float:
    """Modeled multiply-adds of one sketch's TTM chain (ascending modes)."""
    current = [float(d) for d in dims]
    total = 0.0
    for m in sorted(spec.omegas):
        s = float(spec.omegas[m].shape[0])
        total += s * float(np.prod(current))
        current[m] = s
    return total
