"""The block store: tensor blocks in memory-mapped spill files.

Layout of an :class:`MmapStore` spill directory::

    <root>/store-XXXXXX/          one directory per store instance
        t0.blk                    block bytes: raw C-order data, a zlib
                                  stream, or float32-narrowed data,
                                  per the manifest's "codec"
        t0.json                   manifest: {"key", "shape", "dtype",
                                  "nbytes"[, "codec", "stored_nbytes",
                                  "stored_dtype", "codec_*_error"]}
        t0.dec                    decode scratch (raw bytes) of an
                                  encoded block, created on first read
        ...

A block is *committed* only once its manifest exists (the manifest is
written after the data file), so a crash mid-spill leaves a ``.blk``
without a ``.json`` — which :meth:`MmapStore.get` reports as a typed
:class:`CorruptBlockError`, never as silently wrong data. Truncated or
resized data files are caught by an exact byte-size check against the
manifest.

Every store removes its own files: explicitly via :meth:`MmapStore.close`
(idempotent), or at interpreter exit through a ``weakref.finalize`` — the
same no-orphans discipline the procpool backend applies to ``/dev/shm``
segments.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import tempfile
import threading
import weakref
import zlib
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER

#: environment variable naming the spill root directory.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: environment variable naming the default memory budget (bytes, K/M/G ok).
MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET"

#: write-through chunk size: no spill ever materializes more than this
#: many bytes at once while copying a block into the store.
DEFAULT_CHUNK_BYTES = 16 * 2**20

#: per-block ceiling when no memory budget constrains the store.
DEFAULT_MAX_BLOCK_BYTES = 64 * 2**20

#: manifest schema version (bump on incompatible changes).
MANIFEST_VERSION = 1

#: block codec families (``zlib`` accepts an optional ``:<level>``).
SPILL_CODECS = ("raw", "zlib", "narrow")

#: compression level used when a bare ``"zlib"`` spec names no level.
DEFAULT_ZLIB_LEVEL = 6

_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_BYTES_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kKmMgGtT]?)[iI]?[bB]?\s*$")

_SUFFIX = {"": 1, "k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}


class StorageError(ReproError, RuntimeError):
    """Base class for block-store failures."""


class CorruptBlockError(StorageError):
    """A spill file or its manifest failed validation.

    Carries the offending ``key``, the ``path`` that failed, and a short
    machine-checkable ``reason``.
    """

    def __init__(self, message: str, *, key: str = "", path: str = "",
                 reason: str = "") -> None:
        super().__init__(message)
        self.key = key
        self.path = path
        self.reason = reason


def parse_bytes(text) -> int:
    """Parse a byte count: plain int, or ``"512K"`` / ``"2M"`` / ``"1.5G"``.

    Suffixes are binary (K = 2**10); an optional ``iB``/``B`` tail is
    accepted (``64MiB``). Raises :class:`ValueError` on anything else.
    """
    if isinstance(text, (int, np.integer)):
        value = int(text)
        if value < 0:
            raise ValueError(f"byte count must be >= 0, got {value}")
        return value
    match = _BYTES_RE.match(str(text))
    if not match:
        raise ValueError(
            f"expected a byte count like 1048576 / 512K / 2M / 1.5G, "
            f"got {text!r}"
        )
    return int(float(match.group(1)) * _SUFFIX[match.group(2).lower()])


def check_codec(codec) -> str:
    """Normalize a codec spec to its canonical string.

    Accepted: ``"raw"`` (or ``None``/``""``), ``"zlib"`` /
    ``"zlib:<level>"`` with level in 0..9, and ``"narrow"``
    (float64 blocks stored as float32 with a recorded error bound).
    Raises :class:`ValueError` on anything else.
    """
    if codec is None:
        return "raw"
    spec = str(codec).strip().lower()
    if spec in ("", "raw"):
        return "raw"
    if spec == "narrow":
        return "narrow"
    if spec == "zlib":
        return f"zlib:{DEFAULT_ZLIB_LEVEL}"
    if spec.startswith("zlib:"):
        try:
            level = int(spec[len("zlib:"):])
        except ValueError:
            level = -1
        if 0 <= level <= 9:
            return f"zlib:{level}"
        raise ValueError(
            f"zlib level must be an integer in 0..9, got {codec!r}"
        )
    raise ValueError(
        f"unknown spill codec {codec!r}; expected one of "
        f"raw, zlib[:level], narrow"
    )


def codec_kind(codec: str) -> str:
    """The codec family of a canonical spec (``"zlib:6"`` -> ``"zlib"``)."""
    return codec.split(":", 1)[0]


class BlockMeta(NamedTuple):
    """A block manifest, validated: geometry plus codec facts.

    ``nbytes`` is always the *logical* (decoded) size; ``stored_nbytes``
    is what the data file holds on disk (equal for ``raw`` blocks).
    ``abs_error`` / ``rel_error`` are the recorded per-element bounds of
    a ``narrow`` encode (0.0 for lossless codecs).
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    nbytes: int
    codec: str = "raw"
    stored_nbytes: int = 0
    stored_dtype: np.dtype | None = None
    abs_error: float = 0.0
    rel_error: float = 0.0


def default_memory_budget() -> int | None:
    """The ``$REPRO_MEMORY_BUDGET`` budget in bytes, or ``None`` if unset."""
    env = os.environ.get(MEMORY_BUDGET_ENV)
    if not env:
        return None
    try:
        return parse_bytes(env)
    except ValueError as exc:
        raise ValueError(f"invalid {MEMORY_BUDGET_ENV}: {exc}") from None


# --------------------------------------------------------------------- #
# resident accounting
# --------------------------------------------------------------------- #


class ResidentGauge:
    """Thread-safe ledger of bytes currently leased as resident copies.

    Out-of-core code paths wrap every block-sized materialization (chunk
    buffers during spills, per-block reads inside kernels) in
    :meth:`lease`; ``peak`` is then a *measured* bound on resident block
    bytes that the stress suite can assert against a memory budget.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self.current += int(nbytes)
            if self.current > self.peak:
                self.peak = self.current

    def release(self, nbytes: int) -> None:
        with self._lock:
            self.current = max(0, self.current - int(nbytes))

    @contextmanager
    def lease(self, nbytes: int):
        """Charge ``nbytes`` for the duration of the ``with`` block."""
        nbytes = int(nbytes)
        self.charge(nbytes)
        try:
            yield
        finally:
            self.release(nbytes)

    def reset(self) -> None:
        with self._lock:
            self.current = 0
            self.peak = 0


_GAUGE = ResidentGauge()


def resident_gauge() -> ResidentGauge:
    """The process-wide gauge stores charge by default."""
    return _GAUGE


# --------------------------------------------------------------------- #
# mmap spill store
# --------------------------------------------------------------------- #


def default_spill_root() -> str | None:
    """``$REPRO_SPILL_DIR`` when set, else ``None`` (a fresh tempdir)."""
    return os.environ.get(SPILL_DIR_ENV) or None


def _remove_tree(path: str) -> None:
    """Finalizer: best-effort removal of a store directory."""
    shutil.rmtree(path, ignore_errors=True)


def write_runs(path: str, runs, *, create: bool = False) -> None:
    """Write ``(offset, array)`` runs into the file ``path`` with
    positioned writes.

    The one way raw block bytes are written: raw staging
    (:meth:`MmapStore.put`), narrow decoding and the block kernels' TTM
    sinks. Writing the same bytes through a freshly created shared file
    mapping costs several times as much, in dirty-page faults rather
    than disk traffic. Each array must be C-contiguous. A short write
    is resumed where it stopped; an ``OSError`` (``ENOSPC``, ``EIO``)
    is raised as a :class:`StorageError`. ``create`` creates (or
    truncates) the file first; otherwise it must exist.
    """
    flags = os.O_WRONLY | (os.O_CREAT | os.O_TRUNC if create else 0)
    try:
        fd = os.open(path, flags, 0o600)
    except OSError as exc:
        raise StorageError(f"cannot open spill file {path!r}: {exc}") from exc
    try:
        for offset, array in runs:
            data = memoryview(array.reshape(-1).view(np.uint8))
            while data:
                written = os.pwrite(fd, data, offset)
                if written <= 0:
                    raise OSError(errno.ENOSPC, "positioned write stalled")
                data, offset = data[written:], offset + written
    except OSError as exc:
        raise StorageError(f"cannot write spill file {path!r}: {exc}") from exc
    finally:
        os.close(fd)


class MmapStore:
    """Named tensor blocks as np.memmap-backed spill files under a managed
    directory, with put/get/writer semantics.

    Keys are caller-chosen identifiers (``[A-Za-z0-9._-]``, not starting
    with a separator); :meth:`next_key` hands out collision-free ones.
    ``get`` views are read-only. Blocks are written by positioned writes
    (:func:`write_runs`): :meth:`put` writes its chunks, and the block
    kernels write a :meth:`create`d output block by path, workers in
    disjoint runs. ``writer`` views (mutable, shared mappings) remain
    for callers that fill a block in place, such as the virtual
    cluster's bricks.

    Spill files are run-scoped scratch: nothing reads them after the
    store is closed or its process dies, so no block is ever synced to
    disk (no ``msync``/``flush``/``fsync``). They stay in the page cache
    until they are deleted, and the kernel writes them back only under
    memory pressure. Positioned writes and every mapping go through the
    one page cache, so worker processes and the parent see each other's
    writes. Manifests still commit atomically (written aside, then
    ``os.replace``), so a reader sees a whole manifest or none.

    Parameters
    ----------
    root:
        Parent directory for this store's spill subdirectory. Defaults to
        ``$REPRO_SPILL_DIR``, else the system tempdir. The subdirectory is
        always store-private and is removed on :meth:`close` (or, as a
        backstop, by a weakref finalizer at garbage collection /
        interpreter exit); an explicitly named ``root`` itself is never
        removed.
    chunk_bytes:
        Write-through granularity of :meth:`put` — bounds the resident
        bytes of any single spill copy (and of codec encode/decode).
    max_block_bytes:
        Per-block ceiling the out-of-core kernels cut their work to
        (sessions derive it from ``memory_budget``).
    gauge:
        Resident-byte accounting; defaults to the process-wide gauge.
    codec:
        Default block codec for :meth:`put` — ``"raw"`` (memmap-able,
        the default), ``"zlib[:level]"`` (lossless deflate stream), or
        ``"narrow"`` (float64 stored as float32 with a recorded error
        bound). Non-raw blocks are decoded chunk-by-chunk into a raw
        scratch file on first read; :meth:`create` outputs are always
        raw.
    """

    def __init__(
        self,
        root: str | None = None,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_block_bytes: int | None = None,
        gauge: ResidentGauge | None = None,
        codec: str = "raw",
    ) -> None:
        self.max_block_bytes = int(
            DEFAULT_MAX_BLOCK_BYTES
            if max_block_bytes is None
            else max_block_bytes
        )
        if self.max_block_bytes < 1:
            raise ValueError(
                f"max_block_bytes must be >= 1, got {self.max_block_bytes}"
            )
        self.gauge = gauge if gauge is not None else resident_gauge()
        #: spill I/O reporting target (:mod:`repro.obs`); the session
        #: repoints this at its live tracer for traced runs. The default
        #: no-op tracer keeps untraced spills branch-free.
        self.tracer = NULL_TRACER
        self._counter = 0
        self._closed = False
        self.chunk_bytes = max(1, int(chunk_bytes))
        self.codec = check_codec(codec)
        #: put() accounting: bytes actually written vs logical bytes, and
        #: the worst narrow-encode error seen — surfaced per run in
        #: :meth:`codec_stats` / ``TuckerResult``.
        self.spill_bytes_written = 0
        self.spill_bytes_logical = 0
        self.spill_abs_error = 0.0
        self.spill_rel_error = 0.0
        root = root if root is not None else default_spill_root()
        if root is not None:
            os.makedirs(root, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=root)
        self._finalizer = weakref.finalize(
            self, _remove_tree, self.directory
        )

    def codec_stats(self) -> dict:
        """Accumulated spill accounting for this store's :meth:`put` calls."""
        return {
            "spill_codec": self.codec,
            "spill_bytes_written": int(self.spill_bytes_written),
            "spill_bytes_logical": int(self.spill_bytes_logical),
            "spill_error_bound": float(self.spill_rel_error),
        }

    # -- key management --------------------------------------------------- #

    @staticmethod
    def check_key(key: str) -> str:
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise ValueError(
                f"block keys must match [A-Za-z0-9][A-Za-z0-9._-]*, "
                f"got {key!r}"
            )
        return key

    def next_key(self, prefix: str = "t") -> str:
        """A fresh key, unique within this store."""
        self.check_key(prefix)
        self._counter += 1
        return f"{prefix}.{self._counter}"

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{type(self).__name__} is closed")

    def per_block_bytes(self, n_workers: int = 1) -> int:
        """Per-block byte ceiling when ``n_workers`` blocks fly at once."""
        return max(1, self.max_block_bytes // max(1, int(n_workers)))

    # -- paths / manifests ------------------------------------------------- #

    def path_of(self, key: str) -> str:
        """Filesystem path of the block's bytes."""
        self.check_key(key)
        return os.path.join(self.directory, f"{key}.blk")

    def _manifest_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _write_manifest(
        self, key: str, shape, dtype, nbytes: int, *,
        codec: str = "raw", stored_nbytes: int | None = None,
        stored_dtype=None, abs_error: float = 0.0, rel_error: float = 0.0,
    ) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "key": key,
            "shape": [int(s) for s in shape],
            "dtype": np.dtype(dtype).str,
            "nbytes": int(nbytes),
        }
        if codec != "raw":
            manifest["codec"] = codec
            manifest["stored_nbytes"] = int(
                nbytes if stored_nbytes is None else stored_nbytes
            )
            if codec_kind(codec) == "narrow":
                manifest["stored_dtype"] = np.dtype(stored_dtype).str
                manifest["codec_abs_error"] = float(abs_error)
                manifest["codec_rel_error"] = float(rel_error)
        path = self._manifest_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, path)  # committed atomically, data file first

    def meta_of(self, key: str) -> tuple[tuple[int, ...], np.dtype]:
        """``(shape, dtype)`` of a stored block."""
        meta = self._load_manifest(key)
        return meta.shape, meta.dtype

    def block_meta(self, key: str) -> BlockMeta:
        """The validated manifest, codec facts included."""
        return self._load_manifest(key)

    def block_codec(self, key: str) -> str:
        """The canonical codec a committed block was stored with."""
        return self._load_manifest(key).codec

    def _load_manifest(self, key: str) -> BlockMeta:
        """Validated :class:`BlockMeta`; typed errors otherwise."""
        self._check_open()
        self.check_key(key)
        path = self._manifest_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            if os.path.exists(self.path_of(key)):
                raise CorruptBlockError(
                    f"block {key!r} has data but no manifest "
                    f"(interrupted spill?)",
                    key=key, path=self.path_of(key),
                    reason="missing-manifest",
                ) from None
            raise KeyError(key) from None
        except ValueError as exc:
            raise CorruptBlockError(
                f"block {key!r} manifest is not valid JSON: {exc}",
                key=key, path=path, reason="bad-manifest-json",
            ) from None
        try:
            if manifest["version"] != MANIFEST_VERSION:
                raise CorruptBlockError(
                    f"block {key!r} manifest is version "
                    f"{manifest['version']!r}, expected {MANIFEST_VERSION}",
                    key=key, path=path, reason="bad-manifest-version",
                )
            shape = tuple(int(s) for s in manifest["shape"])
            dtype = np.dtype(manifest["dtype"])
            nbytes = int(manifest["nbytes"])
        except CorruptBlockError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptBlockError(
                f"block {key!r} manifest is malformed: {exc!r}",
                key=key, path=path, reason="bad-manifest-fields",
            ) from None
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != expected:
            raise CorruptBlockError(
                f"block {key!r} manifest is inconsistent: shape {shape} "
                f"x {dtype} is {expected} bytes, manifest says {nbytes}",
                key=key, path=path, reason="inconsistent-manifest",
            )
        raw_codec = manifest.get("codec", "raw")
        try:
            codec = check_codec(raw_codec)
        except ValueError:
            raise CorruptBlockError(
                f"block {key!r} manifest names unknown codec {raw_codec!r}",
                key=key, path=path, reason="unknown-codec",
            ) from None
        if codec == "raw":
            return BlockMeta(shape, dtype, nbytes, "raw", nbytes, dtype)
        try:
            stored_nbytes = int(manifest["stored_nbytes"])
            if codec_kind(codec) == "narrow":
                stored_dtype = np.dtype(manifest["stored_dtype"])
                abs_error = float(manifest["codec_abs_error"])
                rel_error = float(manifest["codec_rel_error"])
            else:
                stored_dtype = dtype
                abs_error = rel_error = 0.0
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptBlockError(
                f"block {key!r} manifest is malformed: {exc!r}",
                key=key, path=path, reason="bad-manifest-fields",
            ) from None
        if codec_kind(codec) == "narrow":
            size = int(np.prod(shape, dtype=np.int64))
            if stored_nbytes != size * stored_dtype.itemsize:
                raise CorruptBlockError(
                    f"block {key!r} manifest is inconsistent: narrow "
                    f"shape {shape} x {stored_dtype} should store "
                    f"{size * stored_dtype.itemsize} bytes, manifest "
                    f"says {stored_nbytes}",
                    key=key, path=path, reason="inconsistent-manifest",
                )
        elif stored_nbytes < 0:
            raise CorruptBlockError(
                f"block {key!r} manifest is malformed: negative "
                f"stored_nbytes {stored_nbytes}",
                key=key, path=path, reason="bad-manifest-fields",
            )
        return BlockMeta(
            shape, dtype, nbytes, codec, stored_nbytes, stored_dtype,
            abs_error, rel_error,
        )

    def _checked_path(self, key: str) -> tuple[str, BlockMeta]:
        meta = self._load_manifest(key)
        path = self.path_of(key)
        try:
            actual = os.path.getsize(path)
        except OSError:
            raise CorruptBlockError(
                f"block {key!r} data file is missing",
                key=key, path=path, reason="missing-data",
            ) from None
        if actual != meta.stored_nbytes:
            raise CorruptBlockError(
                f"block {key!r} data file is {actual} bytes, manifest "
                f"says {meta.stored_nbytes} (truncated or overwritten "
                f"spill file)",
                key=key, path=path, reason="size-mismatch",
            )
        return path, meta

    # -- blocks ------------------------------------------------------------ #

    def put(
        self, key: str, array: np.ndarray, *, dtype=None, codec=None
    ) -> None:
        """Spill ``array`` write-through in ``chunk_bytes`` chunks.

        The source may be any ndarray (including a strided memmap view,
        e.g. one brick of a lazily opened ``.npy``): chunks are copied
        slab-by-slab along the first axis, so at most one chunk of the
        block is ever resident on top of the source's own pages.
        ``dtype`` converts per chunk while writing — a working-precision
        change never materializes a full converted copy.

        ``codec`` overrides the store default for this block (``"raw"``
        forces a directly mappable — and therefore writable — block on an
        encoding store). ``narrow`` only applies to float64 blocks
        (anything else falls back to ``raw``); zero-byte blocks are always
        committed raw.
        """
        self._check_open()
        self.check_key(key)
        array = np.asarray(array)
        shape = array.shape  # manifests keep the true shape, 0-d included
        if array.ndim == 0:
            array = array.reshape(1)  # np.memmap needs >= 1 dimension
        target = np.dtype(dtype) if dtype is not None else array.dtype
        path = self.path_of(key)
        self._drop_decoded(key)  # a re-put invalidates any decode scratch
        nbytes = array.size * target.itemsize
        if nbytes == 0:
            with open(path, "wb"):
                pass  # data file of exactly the manifest's 0 bytes
            self._write_manifest(key, shape, target, 0)
            return
        codec = check_codec(codec) if codec is not None else self.codec
        if codec == "narrow" and target != np.dtype(np.float64):
            codec = "raw"  # narrowing is defined for float64 only
        kind = codec_kind(codec)
        if kind == "raw":
            with self.tracer.span(
                "spill:write", kind="io", key=key, bytes=int(nbytes)
            ):
                self._spill_copy(array, path, target)
            self._write_manifest(key, shape, target, nbytes)
            stored = nbytes
        elif kind == "zlib":
            level = int(codec.split(":", 1)[1])
            with self.tracer.span(
                "spill:write", kind="io", key=key
            ) as span:
                stored = self._spill_zlib(array, path, target, level)
                span.set(
                    bytes=int(stored), raw_bytes=int(nbytes), codec=codec
                )
            self._write_manifest(
                key, shape, target, nbytes,
                codec=codec, stored_nbytes=stored,
            )
        else:  # narrow
            with self.tracer.span(
                "spill:write", kind="io", key=key
            ) as span:
                stored, abs_err, rel_err = self._spill_narrow(
                    array, path, target
                )
                span.set(
                    bytes=int(stored), raw_bytes=int(nbytes), codec=codec
                )
            self._write_manifest(
                key, shape, target, nbytes,
                codec=codec, stored_nbytes=stored,
                stored_dtype=np.float32,
                abs_error=abs_err, rel_error=rel_err,
            )
            self.spill_abs_error = max(self.spill_abs_error, abs_err)
            self.spill_rel_error = max(self.spill_rel_error, rel_err)
        self.spill_bytes_written += int(stored)
        self.spill_bytes_logical += int(nbytes)

    def _spill_copy(
        self, array: np.ndarray, path: str, target: np.dtype
    ) -> None:
        """The leased chunks of :meth:`_iter_chunks`, written in order;
        a failed write leaves no data file behind."""

        def runs():
            offset = 0
            for chunk in self._iter_chunks(array, target):
                yield offset, chunk
                offset += chunk.nbytes

        try:
            write_runs(path, runs(), create=True)
        except StorageError:
            try:
                os.remove(path)
            except OSError:
                pass
            raise

    def _iter_chunks(self, array: np.ndarray, target: np.dtype, scale=1):
        """Yield leased, C-contiguous ``target``-dtype chunks of ``array``.

        The effective chunk budget is ``chunk_bytes // scale`` — codec
        writers that hold per-chunk temporaries (the narrow error
        computation) pass ``scale > 1`` so their whole working set stays
        within the store's chunk bound. The lease covers each chunk for
        as long as the consumer holds it (generator suspension keeps the
        ``with`` open across the yield).
        """
        budget = max(1, self.chunk_bytes // int(scale))
        if array.flags["C_CONTIGUOUS"]:
            src = array.reshape(-1)
            elems = max(1, budget // target.itemsize)
            for start in range(0, src.shape[0], elems):
                piece = src[start:start + elems]
                with self.gauge.lease(piece.size * target.itemsize):
                    yield np.ascontiguousarray(piece, dtype=target)
        else:
            nbytes = array.size * target.itemsize
            row_bytes = max(1, nbytes // max(1, array.shape[0]))
            rows = max(1, budget // row_bytes)
            for start in range(0, array.shape[0], rows):
                stop = min(array.shape[0], start + rows)
                with self.gauge.lease((stop - start) * row_bytes):
                    slab = np.ascontiguousarray(
                        array[start:stop], dtype=target
                    )
                    yield slab.reshape(-1)

    def _spill_zlib(
        self, array: np.ndarray, path: str, target: np.dtype, level: int
    ) -> int:
        """Deflate ``array`` into one sequential stream; returns bytes."""
        comp = zlib.compressobj(level)
        stored = 0
        with open(path, "wb") as fh:
            for chunk in self._iter_chunks(array, target):
                # The sync flush drains deflate's internal buffering per
                # chunk, so resident output never exceeds ~one chunk —
                # without it the encoder can burst several buffered
                # chunks at once, breaking the chunk_bytes residency
                # bound the gauge enforces.
                data = comp.compress(chunk) + comp.flush(zlib.Z_SYNC_FLUSH)
                if data:
                    with self.gauge.lease(len(data)):
                        fh.write(data)
                    stored += len(data)
            data = comp.flush()
            if data:
                with self.gauge.lease(len(data)):
                    fh.write(data)
                stored += len(data)
        return stored

    def _spill_narrow(
        self, array: np.ndarray, path: str, target: np.dtype
    ) -> tuple[int, float, float]:
        """float64 -> float32 with measured per-element error bounds.

        Returns ``(stored_nbytes, max_abs_error, max_rel_error)`` where
        the bounds are exact maxima over the elements written (the
        decode path reproduces them bit-for-bit, so the bounds hold for
        every later read).
        """
        narrow = np.dtype(np.float32)
        stored = 0
        abs_err = 0.0
        rel_err = 0.0
        with open(path, "wb") as fh:
            # scale=4: the f8 chunk plus its f4 copy and the f8 error
            # temporaries stay well inside one chunk_bytes of residency.
            for chunk in self._iter_chunks(array, target, scale=4):
                extra = chunk.size * (
                    narrow.itemsize + 2 * target.itemsize
                )
                with self.gauge.lease(extra):
                    narrowed = chunk.astype(narrow)
                    diff = np.abs(chunk - narrowed)
                    if diff.size:
                        abs_err = max(abs_err, float(diff.max()))
                        denom = np.abs(chunk)
                        mask = denom > 0
                        if np.any(mask):
                            rel_err = max(
                                rel_err,
                                float((diff[mask] / denom[mask]).max()),
                            )
                    fh.write(narrowed)
                    stored += narrowed.nbytes
        return stored, abs_err, rel_err

    def _map(self, key: str, mode: str) -> np.ndarray:
        path, meta = self._checked_path(key)
        shape, dtype = meta.shape, meta.dtype
        if meta.codec != "raw":
            if mode != "r":
                raise StorageError(
                    f"block {key!r} is stored with codec "
                    f"{meta.codec!r}; encoded blocks are read-only"
                )
            path = self._ensure_decoded(key, path, meta)
        if int(np.prod(shape, dtype=np.int64)) == 0:
            return np.empty(shape, dtype=dtype)  # nothing to map
        if shape == ():
            # stored as one element; hand back the true 0-d view
            return np.memmap(path, dtype=dtype, mode=mode, shape=(1,)).reshape(())
        return np.memmap(path, dtype=dtype, mode=mode, shape=shape)

    # -- codec decode (non-raw blocks) ------------------------------------- #

    def _decoded_path(self, key: str) -> str:
        # Not .blk/.json, so keys() and the corruption checks never see it.
        return os.path.join(self.directory, f"{key}.dec")

    def _drop_decoded(self, key: str) -> None:
        try:
            os.remove(self._decoded_path(key))
        except FileNotFoundError:
            pass

    def mappable_path(self, key: str) -> str | None:
        """A raw file of the block's bytes that workers may ``np.memmap``.

        Raw blocks map in place; encoded blocks are decoded (once) into
        a scratch file first. ``None`` only for zero-byte blocks.
        """
        path, meta = self._checked_path(key)
        if int(np.prod(meta.shape, dtype=np.int64)) == 0:
            return None
        if meta.codec == "raw":
            return path
        return self._ensure_decoded(key, path, meta)

    def _ensure_decoded(self, key: str, src: str, meta: BlockMeta) -> str:
        """Decode an encoded block into its raw scratch file (cached)."""
        dst = self._decoded_path(key)
        try:
            if os.path.getsize(dst) == meta.nbytes:
                return dst
        except OSError:
            pass
        tmp = dst + ".tmp"
        try:
            with self.tracer.span(
                "spill:decode", kind="io", key=key,
                bytes=int(meta.nbytes), codec=meta.codec,
            ):
                if codec_kind(meta.codec) == "zlib":
                    self._decode_zlib(key, src, tmp, meta)
                else:
                    self._decode_narrow(key, src, tmp, meta)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, dst)
        # the scratch is a full raw write of the block: spill I/O too
        self.spill_bytes_written += int(meta.nbytes)
        return dst

    def _decode_zlib(
        self, key: str, src: str, dst: str, meta: BlockMeta
    ) -> None:
        dec = zlib.decompressobj()
        written = 0

        def emit(fout, data: bytes) -> int:
            if not data:
                return 0
            if written + len(data) > meta.nbytes:
                raise CorruptBlockError(
                    f"block {key!r} compressed data decodes past its "
                    f"{meta.nbytes}-byte manifest size",
                    key=key, path=src, reason="corrupt-compressed-data",
                )
            with self.gauge.lease(len(data)):
                fout.write(data)
            return len(data)

        try:
            with open(src, "rb") as fin, open(dst, "wb") as fout:
                while True:
                    comp = fin.read(self.chunk_bytes)
                    if not comp:
                        break
                    with self.gauge.lease(len(comp)):
                        # max_length bounds each inflate burst so a
                        # corrupt stream cannot balloon residency.
                        data = dec.decompress(comp, self.chunk_bytes)
                        written += emit(fout, data)
                        while dec.unconsumed_tail:
                            data = dec.decompress(
                                dec.unconsumed_tail, self.chunk_bytes
                            )
                            written += emit(fout, data)
                written += emit(fout, dec.flush())
        except zlib.error as exc:
            raise CorruptBlockError(
                f"block {key!r} compressed data is corrupt: {exc}",
                key=key, path=src, reason="corrupt-compressed-data",
            ) from None
        if written != meta.nbytes:
            raise CorruptBlockError(
                f"block {key!r} compressed data decoded to {written} "
                f"bytes, manifest says {meta.nbytes}",
                key=key, path=src, reason="corrupt-compressed-data",
            )

    def _decode_narrow(
        self, key: str, src: str, dst: str, meta: BlockMeta
    ) -> None:
        size = int(np.prod(meta.shape, dtype=np.int64))
        src_mm = np.memmap(
            src, dtype=meta.stored_dtype, mode="r", shape=(size,)
        )
        itemsize = meta.dtype.itemsize
        elems = max(1, self.chunk_bytes // itemsize)

        def runs():
            for start in range(0, size, elems):
                stop = min(size, start + elems)
                with self.gauge.lease((stop - start) * itemsize):
                    yield start * itemsize, src_mm[start:stop].astype(
                        meta.dtype
                    )

        write_runs(dst, runs(), create=True)

    def get(self, key: str) -> np.ndarray:
        """The stored block, as a read-only mapping."""
        # The span covers manifest validation + the mmap syscall; the
        # pages themselves fault in lazily inside the consuming kernel,
        # so `bytes` reports the block's size, not bytes read here.
        with self.tracer.span("spill:read", kind="io", key=key) as span:
            out = self._map(key, "r")
            span.set(bytes=int(out.nbytes))
        return out

    def writer(self, key: str) -> np.ndarray:
        """A mutable view of the stored block."""
        return self._map(key, "r+")

    def create(self, key: str, shape, dtype) -> None:
        """Allocate an uninitialized block, to be written by path
        (:func:`write_runs`) or through :meth:`writer`."""
        self._check_open()
        self.check_key(key)
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        path = self.path_of(key)
        with open(path, "wb") as fh:
            fh.truncate(nbytes)  # sparse where the filesystem allows
        self._write_manifest(key, shape, dtype, nbytes)

    def delete(self, key: str) -> None:
        """Remove a block (missing keys are ignored)."""
        if self._closed:
            return
        self.check_key(key)
        for path in (
            self.path_of(key),
            self._manifest_path(key),
            self._decoded_path(key),
        ):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def keys(self) -> list[str]:
        """Keys of every committed block."""
        self._check_open()
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    @property
    def nbytes(self) -> int:
        """Total bytes of every committed block."""
        self._check_open()
        total = 0
        for key in self.keys():
            total += self._load_manifest(key).nbytes
        return total

    def close(self) -> None:
        """Remove every spill file and the store directory (idempotent)."""
        if not self._closed:
            self._finalizer()  # runs _remove_tree exactly once
        self._closed = True

    def __enter__(self) -> "MmapStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}("
            f"blocks={len(self.keys()) if not self._closed else 0})"
        )


# --------------------------------------------------------------------- #
# the out-of-core tensor handle
# --------------------------------------------------------------------- #


class StoredTensor:
    """A tensor resident in a :class:`MmapStore` — the spilled handle.

    Shared-memory backends pass these instead of ndarrays when a run has
    spilled. The description is process-portable: any worker can map
    ``(path, offset, shape, dtype)`` read-only with ``np.memmap`` — which
    is exactly how the procpool backend reads blocks without copying the
    tensor through ``shared_memory`` segments.

    Ownership: a handle over a store-allocated block (``owned=True``)
    deletes the block when closed or garbage collected; a handle wrapped
    around an *external* file (a lazily opened ``.npy``) never touches
    the file.
    """

    def __init__(
        self,
        store: MmapStore,
        shape: tuple[int, ...],
        dtype,
        *,
        key: str | None = None,
        path: str | None = None,
        offset: int = 0,
        owned: bool = True,
    ) -> None:
        self.store = store
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.key = key
        self.path = path
        self.offset = int(offset)
        self.owned = bool(owned)
        if owned:
            if key is None:
                raise ValueError("an owned StoredTensor needs its store key")
            self._finalizer = weakref.finalize(
                self, _delete_block, store, key
            )
        else:
            self._finalizer = None

    # -- constructors ------------------------------------------------------ #

    @classmethod
    def spill(
        cls, store: MmapStore, array: np.ndarray, *, key: str | None = None
    ) -> "StoredTensor":
        """Write ``array`` through the store and hand back its handle.

        ``path`` stays ``None`` for codec-encoded blocks — their on-disk
        bytes are not directly mappable, so readers must go through
        :meth:`open` / :meth:`mappable` (which decode on demand).
        """
        key = key if key is not None else store.next_key("t")
        store.put(key, array)
        path = store.path_of(key)
        if store.block_codec(key) != "raw":
            path = None
        return cls(
            store, array.shape, array.dtype, key=key, path=path, owned=True,
        )

    @classmethod
    def allocate(
        cls, store: MmapStore, shape, dtype, *, key: str | None = None
    ) -> "StoredTensor":
        """Allocate an uninitialized output block; the block kernels
        write it by path (``BlockSource.of(handle, write=True)``)."""
        key = key if key is not None else store.next_key("o")
        store.create(key, shape, dtype)
        return cls(
            store, shape, dtype, key=key, path=store.path_of(key), owned=True
        )

    @classmethod
    def external(
        cls, store: MmapStore, mapped: np.memmap
    ) -> "StoredTensor":
        """Wrap an already memory-mapped file (no copy, never deleted).

        ``mapped`` must be a C-contiguous ``np.memmap`` (e.g. from
        ``np.load(..., mmap_mode="r")``); its file is read in place by
        every backend, including pool workers.
        """
        if not isinstance(mapped, np.memmap):
            raise TypeError(
                f"external() wraps np.memmap instances, got "
                f"{type(mapped).__name__}"
            )
        if not mapped.flags["C_CONTIGUOUS"]:
            raise ValueError(
                "external() needs a C-contiguous mapping; spill a copy "
                "instead (StoredTensor.spill)"
            )
        if mapped.filename is None:
            raise ValueError("external() needs a file-backed mapping")
        offset = _file_offset(mapped)
        if offset is None:
            raise ValueError(
                "external() cannot locate the mapping's backing file; "
                "spill a copy instead (StoredTensor.spill)"
            )
        return cls(
            store, mapped.shape, mapped.dtype,
            path=os.fspath(mapped.filename), offset=offset,
            owned=False,
        )

    # -- geometry ---------------------------------------------------------- #

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    # -- access ------------------------------------------------------------ #

    def open(self) -> np.ndarray:
        """A read-only mapping of the whole tensor (pages load lazily)."""
        if self.nbytes == 0:
            return np.empty(self.shape, dtype=self.dtype)  # nothing to map
        if self.path is not None:
            return np.memmap(
                self.path, dtype=self.dtype, mode="r",
                offset=self.offset, shape=self.shape,
            )
        return self.store.get(self.key)

    def mappable(self) -> tuple[str, int] | None:
        """``(path, offset)`` of raw bytes a worker can ``np.memmap``.

        Directly-mapped handles answer immediately; codec-encoded blocks
        ask the store for a decoded scratch file (chunked, leased, done
        once and cached). ``None`` means there is no file to map — the
        caller should fall back to :meth:`open` in-process.
        """
        if self.path is not None:
            return self.path, self.offset
        if self.key is None:
            return None
        path = self.store.mappable_path(self.key)
        return (path, 0) if path is not None else None

    def writer(self) -> np.ndarray:
        """A mutable mapping (owned blocks only)."""
        if not self.owned:
            raise StorageError("cannot write into an external StoredTensor")
        return self.store.writer(self.key)

    def close(self) -> None:
        """Reclaim the underlying block now (owned handles only)."""
        if self._finalizer is not None:
            self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path else f"memory:{self.key}"
        return (
            f"StoredTensor(shape={self.shape}, dtype={self.dtype}, "
            f"at={where!r}, owned={self.owned})"
        )


def _delete_block(store: MmapStore, key: str) -> None:
    """Finalizer: reclaim an owned block (quiet after store close)."""
    try:
        store.delete(key)
    except (StorageError, OSError):  # pragma: no cover - already torn down
        pass


# --------------------------------------------------------------------- #
# prefetch support
# --------------------------------------------------------------------- #


def _file_offset(mapped: np.memmap) -> int | None:
    """Where ``mapped``'s first byte lies in its file; ``None`` if unknown.

    Views inherit the parent's ``.offset`` attribute verbatim, so trusting
    it would name the wrong file region for anything but the root mapping
    (``m[2:]`` still reports ``m``'s offset). The true position comes from
    the data pointers instead: walk to the root memmap and add the view's
    byte displacement within it.
    """
    root = mapped
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not isinstance(root, np.memmap):
        return None
    return int(root.offset) + (mapped.ctypes.data - root.ctypes.data)


def warm_pages(array: np.ndarray, *, max_bytes: int | None = None) -> int:
    """Ask the OS to read an array's file region ahead; returns bytes.

    All of prefetch is this one advisory call, made on the caller's
    thread: an item's memory-mapped backing file (a lazily opened
    ``.npy``, a spill block) is named to ``posix_fadvise`` with
    ``POSIX_FADV_WILLNEED`` when ``run_many`` opens it or when a
    serving worker sees it next in its queue, and the kernel reads it
    into the page cache while earlier work computes. No page is touched
    here, so none is mapped into this process: the item's blocks map
    hot pages when they run, and prefetch adds nothing to the resident
    set the memory budget bounds.

    Returns the bytes advised: the mapping's size, capped at
    ``max_bytes`` (a serving worker under a memory budget reads no more
    than that ahead). Resident, empty and not C-contiguous arrays return
    0, as does every array where the OS has no ``posix_fadvise``. Purely
    advisory: an ``OSError`` here is the caller's cue to proceed cold.
    """
    if not isinstance(array, np.memmap):
        return 0
    if array.filename is None or not array.flags["C_CONTIGUOUS"]:
        return 0
    limit = int(array.nbytes)
    if max_bytes is not None:
        limit = min(limit, int(max_bytes))
    offset = _file_offset(array)
    if offset is None:
        return 0
    return warm_file(array.filename, offset, limit)


def warm_file(path: str, offset: int, nbytes: int) -> int:
    """:func:`warm_pages` for a file region named by hand; returns bytes.

    A serving worker reads a queued ``.npy`` ahead this way, from the
    data offset its header gave, without mapping the file first.
    """
    fadvise = getattr(os, "posix_fadvise", None)
    if fadvise is None or nbytes <= 0:
        return 0
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        fadvise(fd, int(offset), int(nbytes), os.POSIX_FADV_WILLNEED)
    finally:
        os.close(fd)
    return int(nbytes)
