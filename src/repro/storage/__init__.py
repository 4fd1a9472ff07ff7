"""Out-of-core block storage: tensors beyond RAM.

The distributed design the paper argues for exists because dense tensors
outgrow a single node's memory; this package gives the reproduction the
same escape hatch on one machine. An :class:`MmapStore` holds named
tensor blocks as memory-mapped files under a managed spill directory
(per-block raw files + JSON manifests, chunked write-through so a block
is never fully resident while being spilled, weakref-finalized cleanup
so no orphaned files survive the store).

:class:`StoredTensor` is the handle the shared-memory backends pass
around when a tensor lives in a store instead of RAM: a (path, offset,
shape, dtype) description that any process — including pool workers —
can map read-only with ``np.memmap``, plus ownership bookkeeping so
intermediate spill blocks are reclaimed the moment the pipeline drops
them.

The :class:`ResidentGauge` is the measured-discipline half: every code
path that materializes block-sized temporaries (chunked spills, per-block
kernel reads) charges its lease here, which is what lets the stress suite
*prove* a larger-than-budget decomposition ran with bounded resident
block bytes instead of merely asserting it finished.
"""

from repro.storage.store import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_BLOCK_BYTES,
    DEFAULT_ZLIB_LEVEL,
    MEMORY_BUDGET_ENV,
    SPILL_CODECS,
    SPILL_DIR_ENV,
    BlockMeta,
    CorruptBlockError,
    MmapStore,
    ResidentGauge,
    StorageError,
    StoredTensor,
    check_codec,
    codec_kind,
    default_memory_budget,
    default_spill_root,
    parse_bytes,
    resident_gauge,
    warm_file,
    warm_pages,
    write_runs,
)

__all__ = [
    "BlockMeta",
    "CorruptBlockError",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_MAX_BLOCK_BYTES",
    "DEFAULT_ZLIB_LEVEL",
    "MEMORY_BUDGET_ENV",
    "MmapStore",
    "ResidentGauge",
    "SPILL_CODECS",
    "SPILL_DIR_ENV",
    "StorageError",
    "StoredTensor",
    "check_codec",
    "codec_kind",
    "default_memory_budget",
    "default_spill_root",
    "parse_bytes",
    "resident_gauge",
    "warm_file",
    "warm_pages",
    "write_runs",
]
