"""Block parallelism shared by the shared-memory pool backends.

The threaded and process-pool backends partition every kernel the same
way: pick the longest mode other than the one the kernel operates on,
split it into near-even contiguous ranges (:func:`repro.dist.blocks
.block_ranges`, the same partitioning the distributed engine uses), and
fan the blocks out to workers. The partial-reduction discipline (ascending
block order, into the backend's Gram scratch when it has one) and the
ledger FLOP formulas live here too. Keeping all of it in one place
guarantees the two backends perform *identical* floating-point operations in *identical*
reduction order — which is what lets the conformance harness hold every
backend to the sequential reference at 1e-10 and the golden tests pin
their FLOP tallies bit-for-bit.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from repro.backends.errors import BackendUnavailableError
from repro.dist.blocks import block_ranges


def split_mode(shape: tuple[int, ...], avoid: int | None) -> int | None:
    """Mode to partition along: the longest mode other than ``avoid``.

    Returns ``None`` when no mode longer than 1 exists outside ``avoid``
    (the kernel then runs unsplit).
    """
    candidates = [
        (length, m)
        for m, length in enumerate(shape)
        if m != avoid and length > 1
    ]
    if not candidates:
        return None
    return max(candidates)[1]


def block_slices(length: int, n_workers: int) -> list[slice]:
    """Near-even contiguous slices covering ``range(length)``."""
    n_blocks = min(n_workers, length)
    return [slice(a, b) for a, b in block_ranges(length, n_blocks)]


def reduce_partials(partials, out=None) -> np.ndarray:
    """Sum ``L x L`` Gram partials in ascending block order (determinism),
    into ``out`` — an ``L x L`` array of the partials' dtype — when given."""
    if out is None:
        out = partials[0].copy()
    else:
        out[...] = partials[0]
    for p in partials[1:]:
        out += p
    return out


def gram_evd_flops(length: int, size: int) -> int:
    """Modeled multiply-adds of one Gram accumulation + EVD.

    Shared by every shared-memory backend so their ledger tallies agree
    exactly (the golden tests pin this).
    """
    return (
        length * (length + 1) // 2 * (size // length)
        + 4 * length**3 // 3
    )


def oc_block_slices(
    shape: tuple[int, ...],
    split: int,
    itemsize: int,
    per_block_bytes: int,
    n_workers: int = 1,
) -> list[slice]:
    """Split-axis slices for out-of-core kernels, bounded two ways.

    Blocks are cut so each holds at most ``per_block_bytes`` (so a
    worker's resident copy stays under the store's budget-derived
    ceiling) *and* there are at least ``n_workers`` of them when the
    split axis allows it (so every pool worker gets work). When one unit
    of the split axis already exceeds ``per_block_bytes`` the slices
    degrade to single-unit slabs — the finest cut one axis admits.

    Deterministic in its arguments: the same handle geometry always
    yields the same blocks, which keeps out-of-core runs bit-reproducible
    like every other path.
    """
    size = 1
    for length in shape:
        size *= int(length)
    slab_bytes = max(1, size // max(1, shape[split]) * int(itemsize))
    per_units = max(1, int(per_block_bytes) // slab_bytes)
    n_blocks = -(-int(shape[split]) // per_units)  # ceil
    n_blocks = min(max(n_blocks, min(n_workers, shape[split])), shape[split])
    return [slice(a, b) for a, b in block_ranges(shape[split], n_blocks)]


#: resident charge per in-flight out-of-core block, as a multiple of the
#: block's bytes: the read copy, the kernel temporary (the Gram's unfold
#: copy; a TTM holds none on any mode, it multiplies the read copy where
#: it lies straight into the sink), and the output slab (a TTM's dirty
#: pages of the mapped sink). A residency guarantee, not a tuning value:
#: sessions size ``max_block_bytes`` as
#: ``memory_budget // OC_LEASE_FACTOR`` so the concurrent leases of a
#: full worker fan-out stay within the budget.
OC_LEASE_FACTOR = 3


def default_workers() -> int:
    """Natural pool size: all but one core, capped at 8."""
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def check_worker_count(n_workers, backend_name: str) -> int:
    """Validate a pool size (``None`` = the natural default).

    Accepts any integral type (plain or numpy ints — worker counts often
    come out of grid arithmetic); anything else, or a non-positive count,
    is a typed unavailability.
    """
    if n_workers is None:
        return default_workers()
    try:
        n_workers = int(operator.index(n_workers))
    except TypeError:
        raise BackendUnavailableError(
            "needs an integral worker count",
            backend=backend_name,
            config={"n_workers": n_workers},
        ) from None
    if n_workers < 1:
        raise BackendUnavailableError(
            "needs a positive worker count",
            backend=backend_name,
            config={"n_workers": n_workers},
        )
    return n_workers


__all__ = [
    "OC_LEASE_FACTOR",
    "block_slices",
    "check_worker_count",
    "default_workers",
    "gram_evd_flops",
    "oc_block_slices",
    "reduce_partials",
    "split_mode",
]
