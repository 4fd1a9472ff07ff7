"""Sequential tensor-times-matrix products, without matricization.

``Z = T x_n M`` applies the linear map ``M`` (shape ``K x L_n``) to every
mode-n fiber: ``Z_(n) = M @ T_(n)`` (paper section 2.1). The cost is
``K * |T|`` multiply-adds; the output has the same shape as ``T`` except
``L_n -> K``.

The unfolding ``T_(n)`` is never formed. With ``A = prod(L_{<n})`` and
``B = prod(L_{>n})`` a C-ordered tensor *is* the array ``(A, L_n, B)``
and ``Z`` the array ``(A, K, B)``, so the product is the batched GEMM
``Z[a] = M @ T[a]`` over the leading index — one ``np.matmul`` that reads
the input where it lies and writes the output where it belongs (``out=``,
the caller's sink, or a fresh array). Mode 0 is the batch of one. This is
the matricization-free TTM of a-Tucker (Li, Xiao, Yang; see PAPERS.md).
When nothing follows the mode (``B == 1``) the slabs would be vectors, so
the same product is taken the other way round: ``T`` is the matrix
``(A, L)`` and ``Z`` the matrix ``(A, K)``, and ``Z = T @ M^T`` is
written straight into the sink in row panels of at most
:data:`PANEL_BYTES` of input each, one ``np.matmul(..., out=)`` per
panel. Apart from one ``L x K`` copy of ``M^T`` (none when ``M`` is the
transpose of a C-ordered factor, the usual call) nothing is allocated; a
mixed-dtype product casts one panel at a time.

Blocks of a larger array keep their views: leading axes that cannot merge
into one ``A`` stay separate batch axes of the same ``matmul`` (for the
last mode: a loop over them, each row range panelled). Only a tensor whose
axes from the mode on are not C-ordered (a transposed or Fortran-ordered
array, a block cut behind the mode) is first copied once to C order, and
only an ``out`` like that is filled through a buffer.

Numerics: BLAS does not keep panel seams bit-stable — a row may round
differently in a panel of another height — so results are a pure function
of the block's shape, dtype and cut, not of how the block was reached:
equal worker counts give equal bits on every map, and backends agree to
rounding.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.util.validation import check_mode

#: input bytes of one last-mode row panel (at the result's dtype): small
#: enough that the panel and BLAS's packing of it stay in L2, large enough
#: that the per-call overhead vanishes. Chosen by a sweep over the
#: workloads' shapes, in ms (min of 11, f64, one BLAS thread, warm pages,
#: 2-vCPU Xeon with 2 MiB L2 per core; "before" is the ``K x A``
#: product plus transposed copy it replaced):
#:
#: =========================  ======  ====  ====  ====  ====  ====
#: shape, mode, K             before  256K  384K  512K  768K  2M
#: =========================  ======  ====  ====  ====  ====  ====
#: 72x64x60x56, 3, 7          30.6    18.1  17.6  17.6  17.4  30.2
#: 36x64x60x56, 3, 7          13.6    8.3   8.2   8.1   8.2   13.4
#: 224x208x192, 2, 24         22.2    15.4  19.1  19.5  17.5  19.2
#: 256x256x256, 2, 32         42.6    45.1  41.9  41.3  40.3  42.6
#: 40x36x32x28, 3, 4          1.91    0.85  0.77  0.74  0.72  1.15
#: 128x96x48, 2, 6            0.67    0.38  0.35  0.33  0.33  0.57
#: 64x64x96, 2, 12            0.57    0.40  0.37  0.40  0.56  0.52
#: =========================  ======  ====  ====  ====  ====  ====
#:
#: At 2 MiB the panel no longer fits and the gain is gone; 768 KiB
#: already loses it on 64x64x96. Only the long fibers of 224x208x192
#: prefer 256 KiB (by 1-4 ms of 15-20 across three sweeps); 512 KiB is
#: the best single size. The middle modes of 72x64x60x56 (K = 8), which
#: this constant does not touch, took 16.0-16.2 ms.
PANEL_BYTES = 512 * 1024


def ttm_out(shape, dtype, matrix: np.ndarray, mode: int):
    """``(shape, dtype)`` of ``X x_mode matrix``."""
    rows = (matrix.shape[0],)
    return (
        tuple(shape[:mode]) + rows + tuple(shape[mode + 1 :]),
        np.result_type(dtype, matrix.dtype),
    )


def _c_ordered_from(a: np.ndarray, axis: int) -> bool:
    """Do axes ``axis..`` of ``a`` lie densely and in C order in memory?

    Then, and only then, they reshape to one unit-stride axis as a view.
    Decided from the strides (the rule ``reshape`` itself applies), since
    ``reshape(copy=False)`` needs numpy 2.1.
    """
    expected = a.itemsize
    for length, stride in zip(
        reversed(a.shape[axis:]), reversed(a.strides[axis:])
    ):
        if length != 1:
            if stride != expected:
                return False
            expected *= length
    return True


def _batch_shape(axes: int, *arrays: np.ndarray) -> tuple[int, ...]:
    """Lengths of the fewest axes the first ``axes`` axes merge into.

    Adjacent axes merge where the strides of every array allow it as a
    view; the arrays agree on those axes' lengths.
    """
    lengths: list[int] = []
    outer: list[int] = []
    for axis, length in enumerate(arrays[0].shape[:axes]):
        if length == 1:
            continue
        strides = [a.strides[axis] for a in arrays]
        if lengths and outer == [length * s for s in strides]:
            lengths[-1] *= length
        else:
            lengths.append(length)
        outer = strides
    return tuple(lengths)


def _check_out(out, shape, dtype, tensor: np.ndarray) -> None:
    if not isinstance(out, np.ndarray):
        raise ValueError(f"out must be an ndarray, got {type(out).__name__}")
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(
            f"out must have shape {shape} and dtype {dtype}, got "
            f"{out.shape} and {out.dtype}"
        )
    if not out.flags.writeable:
        raise ValueError("out is read-only")
    if np.may_share_memory(out, tensor):
        raise ValueError("out may overlap the input tensor")


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply ``tensor`` by ``matrix`` along ``mode``.

    Parameters
    ----------
    tensor: ndarray of shape ``(L_0, ..., L_{N-1})``.
    matrix: ndarray of shape ``(K, L_mode)``.
    mode: 0-based mode index.
    out: where to write the product: a writable array of exactly the
        result's shape and dtype (``result_type`` of the two inputs) that
        does not overlap ``tensor``; any strides. Default: a new
        C-contiguous array.

    Returns
    -------
    ``out``, or the new array: ``L_mode`` replaced by ``K``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    mode = check_mode(mode, tensor.ndim)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    rows, length = matrix.shape
    if length != tensor.shape[mode]:
        raise ValueError(
            f"matrix columns ({length}) must equal tensor length "
            f"along mode {mode} ({tensor.shape[mode]})"
        )
    shape, dtype = ttm_out(tensor.shape, tensor.dtype, matrix, mode)
    if out is None:
        out = np.empty(shape, dtype=dtype)
    else:
        _check_out(out, shape, dtype, tensor)
    if tensor.size == 0:
        out[...] = 0  # an empty sum, or nothing to write at all
        return out

    trail = math.prod(shape[mode + 1 :])
    # The axes behind the mode must merge into one of unit stride — and
    # the mode with them when nothing is behind it, or BLAS has no unit
    # stride to run along. If not: one C-ordered copy of the input, one
    # C-ordered buffer for the output.
    dense_from = mode + 1 if trail > 1 else mode
    x = tensor if _c_ordered_from(tensor, dense_from) else (
        np.ascontiguousarray(tensor)
    )
    z = out if _c_ordered_from(out, dense_from) else np.empty(shape, dtype)
    batch = _batch_shape(mode, x, z)
    if trail > 1:
        np.matmul(
            matrix,
            x.reshape(batch + (length, trail)),
            out=z.reshape(batch + (rows, trail)),
        )
    else:
        # the last batch axis is the GEMM's long side: cut it into panels
        batch, lead = batch[:-1], math.prod(batch[-1:])
        xs = x.reshape(batch + (lead, length))
        zs = z.reshape(batch + (lead, rows))
        right = np.ascontiguousarray(matrix.T, dtype=dtype)
        step = max(1, PANEL_BYTES // (length * dtype.itemsize))
        for index in np.ndindex(batch):
            x_rows, z_rows = xs[index], zs[index]
            for lo in range(0, lead, step):
                np.matmul(
                    x_rows[lo : lo + step], right, out=z_rows[lo : lo + step]
                )
    if z is not out:
        out[...] = z
    return out


def ttm_chain(
    tensor: np.ndarray,
    matrices: Sequence[np.ndarray | None],
    modes: Sequence[int] | None = None,
    *,
    transpose: bool = False,
    skip: int | None = None,
) -> np.ndarray:
    """Multiply along several distinct modes (the TTM-chain of section 2.1).

    Parameters
    ----------
    tensor: input tensor.
    matrices: one matrix per entry of ``modes``; entries may be ``None`` to
        skip a mode when ``modes`` is ``None`` (the convenient HOOI calling
        convention: pass all N factor matrices and ``skip=n``).
    modes: modes to multiply along; default ``range(ndim)``.
    transpose: if True multiply by ``matrix.T`` (HOOI multiplies by the
        factor transposes ``F_j^T``).
    skip: optional mode to leave out (HOOI's "all modes except n").

    The chain is evaluated in the order given; commutativity (paper
    section 2.1) guarantees the result is order-independent, which the
    property tests verify.
    """
    tensor = np.asarray(tensor)
    if modes is None:
        modes = list(range(tensor.ndim))
    modes = [check_mode(m, tensor.ndim) for m in modes]
    if len(modes) != len(set(modes)):
        raise ValueError(f"modes must be distinct, got {modes}")
    if len(matrices) != len(modes):
        raise ValueError(
            f"need one matrix per mode: {len(matrices)} matrices, {len(modes)} modes"
        )
    out = tensor
    for matrix, mode in zip(matrices, modes):
        if mode == skip:
            continue
        if matrix is None:
            raise ValueError(f"matrix for mode {mode} is None and not skipped")
        out = ttm(out, matrix.T if transpose else matrix, mode)
    return out
