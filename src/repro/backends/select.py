"""Input-adaptive backend selection (a-Tucker style).

Hand-picking an execution backend per tensor is exactly the kind of
decision the planner was built to make for trees and grids; this module
closes the loop for backends. Given an input's *metadata* — dims, core,
requested processor count, dtype — and the machine's available cores, it
scores every auto-eligible backend under a small calibratable cost model
and picks the cheapest:

``time(backend) = startup + tasks * per_task + copy + flops / throughput``

where ``throughput = rate * dtype_speedup * efficiency * cores_used``.
The model's per-backend parameters ship with conservative defaults and can
be *calibrated* on the actual machine (``repro calibrate``): measured
throughputs are persisted to a JSON profile (``~/.cache/repro/``, or
``$REPRO_CALIBRATION``) that :func:`load_profile` merges over the
defaults.

``simcluster`` is deliberately not auto-eligible: it is a measurement
instrument (exact communication-volume accounting on a virtual cluster),
not a fast path, so it must always be an explicit choice.

Selection is a pure function of its inputs — same metadata, same profile,
same answer — which is what the property-test suite pins down.
"""

from __future__ import annotations

import json
import logging
import math
import os
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.backends.blockpar import default_workers
from repro.storage import (
    DEFAULT_CHUNK_BYTES,
    default_memory_budget,
    parse_bytes,
)
from repro.util.dtypes import resolve_dtype

logger = logging.getLogger("repro.backends.select")


def _warn(message: str) -> None:
    """Degraded-profile warning: both channels, one call site.

    ``warnings.warn`` stays the API contract (callers filter/assert on
    ``RuntimeWarning``); the logger copy makes the event visible in
    log-based observability (``repro -v``) where warnings are invisible.
    """
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    logger.warning(message)

#: backends the auto-selector may choose, in tie-break priority order.
AUTO_CANDIDATES = ("sequential", "threaded", "procpool")

#: storage specs the session accepts; "auto" resolves per input.
STORAGE_MODES = ("auto", "memory", "mmap")

#: spill codecs a run accepts: flat ``raw`` blocks, or the explicit,
#: lossy ``narrow`` (float64 stored as float32). The store's lossless
#: ``zlib`` is not offered: deflate of noisy doubles encodes near
#: 20 MB/s and saves ~4 % of the bytes, which pays only on a disk slower
#: than ~0.7 MB/s.
SPILL_CODEC_CHOICES = ("raw", "narrow")

#: profile schema version (bump on incompatible changes).
PROFILE_VERSION = 1

#: conservative built-in cost-model parameters. ``rate`` is sustained
#: float64 multiply-adds per second per core; ``sketch_rate`` is the
#: same quantity for the randomized methods' sketch contractions (tall
#: skinny gemms stream differently than square ones, and calibration /
#: :func:`profile_from_trace` can measure them apart); ``startup`` is
#: the one-off cost of bringing the backend up (process pools fork +
#: import); ``per_task`` is the dispatch overhead per block task;
#: ``efficiency`` discounts parallel scaling; ``copy_elems_per_s``
#: charges moving the tensor into backend-owned storage (shared-memory
#: segments), 0 = free.
_DEFAULT_BACKENDS = {
    "sequential": {
        "rate": 2.0e9,
        "sketch_rate": 2.0e9,
        "startup": 0.0,
        "per_task": 0.0,
        "efficiency": 1.0,
        "copy_elems_per_s": 0.0,
        "max_cores": 1.0,
    },
    "threaded": {
        "rate": 2.0e9,
        "sketch_rate": 2.0e9,
        "startup": 2.0e-3,
        "per_task": 1.0e-4,
        "efficiency": 0.85,
        "copy_elems_per_s": 0.0,
        "max_cores": 0.0,  # 0 = no backend-imposed cap
    },
    "procpool": {
        "rate": 2.0e9,
        "sketch_rate": 2.0e9,
        "startup": 1.5e-1,
        "per_task": 2.0e-3,
        "efficiency": 0.90,
        "copy_elems_per_s": 1.0e9,
        "max_cores": 0.0,
    },
}

#: initialization methods the cost model knows how to charge.
_METHODS = ("exact", "rsthosvd", "sp-rsthosvd")

#: machine-level spill-storage parameters (backend-independent: the
#: spill directory's device doesn't care which backend reads it).
#: ``spill_read_passes`` models how many full-tensor read passes a
#: spilled run makes over its blocks on top of the one staging write;
#: ``spill_chunk_bytes`` is the write-through chunk size the calibrate
#: probe found fastest (used only once the profile is calibrated).
_DEFAULT_STORAGE = {
    "spill_write_bytes_per_s": 8.0e8,
    "spill_read_bytes_per_s": 1.6e9,
    "spill_read_passes": 1.0,
    "spill_chunk_bytes": float(DEFAULT_CHUNK_BYTES),
}


def default_profile() -> dict:
    """A fresh copy of the built-in profile."""
    return {
        "version": PROFILE_VERSION,
        "calibrated": False,
        "measured": [],
        "backends": {k: dict(v) for k, v in _DEFAULT_BACKENDS.items()},
        "storage": dict(_DEFAULT_STORAGE),
    }


def default_profile_path() -> str:
    """Where profiles persist: ``$REPRO_CALIBRATION`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CALIBRATION")
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "calibration.json"
    )


def merge_profile(partial: dict) -> dict:
    """Merge a (possibly partial) profile dict over the defaults.

    Unknown backends and unknown parameter keys are dropped; every known
    backend keeps default values for any parameter the partial omits, so
    hand-written overrides like ``{"backends": {"procpool": {"rate":
    5e9}}}`` are valid. The ``measured`` list (which backends calibration
    actually probed) is carried through, filtered to known backends.

    Merging never raises: a value of the wrong type (``"rate": "fast"``,
    a null, a nested object) keeps its default and is reported in a
    single :class:`RuntimeWarning` — a stale or hand-mangled calibration
    file must degrade selection quality, not crash a run.
    """
    profile = default_profile()
    if not isinstance(partial, dict):
        return profile
    invalid: list[str] = []
    backends = partial.get("backends") or {}
    if not isinstance(backends, dict):
        invalid.append("backends")
        backends = {}
    for name, params in backends.items():
        if name not in profile["backends"]:
            continue
        if not isinstance(params, dict):
            invalid.append(str(name))
            continue
        for key, value in params.items():
            if key not in profile["backends"][name]:
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                invalid.append(f"{name}.{key}")
                continue
            if not math.isfinite(value):
                invalid.append(f"{name}.{key}")
                continue
            profile["backends"][name][key] = value
    storage = partial.get("storage")
    if storage is not None:
        if not isinstance(storage, dict):
            invalid.append("storage")
        else:
            for key, value in storage.items():
                if key not in profile["storage"]:
                    continue
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    invalid.append(f"storage.{key}")
                    continue
                if not math.isfinite(value) or value <= 0:
                    invalid.append(f"storage.{key}")
                    continue
                profile["storage"][key] = value
    measured = partial.get("measured") or []
    if not isinstance(measured, (list, tuple)):
        invalid.append("measured")
        measured = []
    profile["measured"] = [
        name
        for name in measured
        if isinstance(name, str) and name in profile["backends"]
    ]
    profile["calibrated"] = bool(partial.get("calibrated", False))
    if invalid:
        _warn(
            f"calibration profile has invalid entries "
            f"({', '.join(sorted(set(invalid)))}); using defaults for those"
        )
    return profile


def load_profile(path: str | None = None) -> dict:
    """Load a persisted profile merged over the defaults.

    A profile is an optimization hint, never a correctness input, so a
    *corrupt or stale* file — truncated/empty JSON, a version mismatch,
    wrong-typed values — falls back to :func:`default_profile` with a
    :class:`RuntimeWarning` instead of failing a run that was about to
    use it. Two cases stay distinct:

    * with ``path=None`` (the implicit machine profile), a *missing*
      file is simply the uncalibrated state: defaults, silently;
    * a path the caller *named* is a promise — if the file cannot be
      read at all (missing, permission denied), that is a caller error
      and a :class:`ValueError` is raised.
    """
    explicit = path is not None
    path = path or default_profile_path()
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError as exc:
        if explicit:
            raise ValueError(
                f"cannot read calibration profile {path!r}: {exc}"
            ) from exc
        return default_profile()
    except ValueError as exc:  # corrupt JSON, including an empty file
        _warn(
            f"calibration profile {path!r} is not valid JSON ({exc}); "
            f"falling back to the default profile"
        )
        return default_profile()
    if not isinstance(stored, dict) or stored.get("version") != PROFILE_VERSION:
        _warn(
            f"calibration profile {path!r} is not a version-"
            f"{PROFILE_VERSION} profile; falling back to the default "
            f"profile"
        )
        return default_profile()
    return merge_profile(stored)


def save_profile(profile: dict, path: str | None = None) -> str:
    """Persist ``profile`` as JSON; returns the path written."""
    path = path or default_profile_path()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------- #
# the cost model
# --------------------------------------------------------------------- #


def _check_dims(name: str, dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"{name} must be positive integers, got {dims}")
    return dims


def sweep_flops(dims: tuple[int, ...], core: tuple[int, ...]) -> float:
    """Modeled multiply-adds of one HOOI sweep (TTMs + Gram syrks).

    Dominated by each mode's first TTM from the full tensor plus the Gram
    accumulation per mode — a deliberate over-approximation that is
    monotone in the tensor size, which is all selection needs.
    """
    card = float(np.prod([float(d) for d in dims]))
    ttm = sum(float(k) * card for k in core)
    gram = sum(float(d + 1) / 2.0 * card for d in dims)
    return ttm + gram


def init_flops(
    dims: tuple[int, ...],
    core: tuple[int, ...],
    method: str = "exact",
    oversample: int = 5,
    power_iters: int = 0,
) -> float:
    """Modeled multiply-adds of one initialization pass, per method.

    ``"exact"`` is a HOOI-shaped sweep (:func:`sweep_flops`, whose Gram
    term charges ``(d+1)/2 * card`` per mode). The randomized methods
    replace each mode's Gram with a sketch contraction of width ``s =
    min(k + oversample, d)`` — the whole point of sketching is ``s <<
    d``. ``rsthosvd`` keeps the sequential-truncation TTM term and adds
    one TTM-plus-cross-Gram round per power iteration; ``sp-rsthosvd``
    drops the TTMs (the input is never modified) but adds the core
    sketch's dominant first contraction. Like :func:`sweep_flops`, a
    deliberate over-approximation monotone in tensor size.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if method == "exact":
        return sweep_flops(dims, core)
    card = float(np.prod([float(d) for d in dims]))
    widths = [
        float(max(1, min(int(k) + int(oversample), int(d))))
        for d, k in zip(dims, core)
    ]
    sketch = sum(s * card for s in widths)
    if method == "rsthosvd":
        ttm = sum(float(k) * card for k in core)
        return sketch * (1.0 + 2.0 * float(power_iters)) + ttm
    t_max = max(
        float(min(2 * int(s) + 1, int(d))) for s, d in zip(widths, dims)
    )
    return sketch + t_max * card


def estimate_seconds(
    params: dict,
    dims: tuple[int, ...],
    core: tuple[int, ...],
    *,
    n_procs: int,
    dtype,
    available_cores: int,
    spilled: bool = False,
    storage_params: dict | None = None,
    method: str = "exact",
    oversample: int = 5,
    power_iters: int = 0,
) -> float:
    """Modeled wall seconds of one sweep under one backend's parameters.

    ``spilled`` switches the model to the out-of-core regime: the copy
    charge is *dropped* (workers memory-map the spill blocks in place —
    there is no staging copy into backend-owned segments) and a spill
    I/O term is *added* — one full write pass to stage the tensor plus
    ``spill_read_passes`` read passes at the machine's measured (or
    default) spill bandwidths from ``storage_params`` (see
    :func:`spill_seconds`).

    ``method`` charges the pass method-aware: the randomized methods'
    flops come from :func:`init_flops` (sketch widths instead of Gram
    halves) at the backend's ``sketch_rate`` throughput — so a
    randomized run is no longer mispriced as an exact sweep.
    """
    flops = init_flops(dims, core, method, oversample, power_iters)
    itemsize = float(np.dtype(dtype).itemsize)
    # Narrower dtypes stream more elements per second, but BLAS only
    # has a real fast path down to float32 — clamping at 2x keeps
    # float16/float8 inputs from being modeled at throughputs numpy
    # cannot deliver (they'd otherwise auto-select on mispriced speed).
    dtype_speedup = min(2.0, 8.0 / itemsize)
    cores_used = max(1, min(int(n_procs), int(available_cores)))
    max_cores = int(params.get("max_cores", 0.0))
    if max_cores > 0:
        cores_used = min(cores_used, max_cores)
    if cores_used == 1:
        efficiency = 1.0
    else:
        efficiency = float(params["efficiency"])
    rate = (
        float(params["rate"])
        if method == "exact"
        else float(params.get("sketch_rate", params["rate"]))
    )
    throughput = rate * dtype_speedup * efficiency * cores_used
    seconds = float(params["startup"]) + flops / throughput
    # ~2 kernels per mode per sweep, each fanning out one task per worker.
    n_tasks = 2.0 * len(dims) * cores_used if cores_used > 1 else 0.0
    seconds += n_tasks * float(params["per_task"])
    if spilled:
        storage = {**_DEFAULT_STORAGE, **(storage_params or {})}
        nbytes = float(np.prod([float(d) for d in dims])) * itemsize
        seconds += spill_seconds(nbytes, storage)
    else:
        copy_rate = float(params["copy_elems_per_s"])
        if copy_rate > 0:
            seconds += float(np.prod([float(d) for d in dims])) / copy_rate
    return seconds


def spill_seconds(nbytes: float, storage: dict) -> float:
    """Modeled spill I/O seconds for one staged tensor: one full write
    plus ``spill_read_passes`` reads at the profile's bandwidths."""
    nbytes = float(nbytes)
    write = float(storage["spill_write_bytes_per_s"])
    read = float(storage["spill_read_bytes_per_s"])
    passes = float(storage["spill_read_passes"])
    return nbytes / write + passes * nbytes / read


def resolve_auto_procs(n_procs, available_cores: int | None = None) -> int:
    """The processor count a selection will use (explicit or natural).

    The natural default is the pool backends' own sizing,
    :func:`~repro.backends.blockpar.default_workers`. Exposed so callers
    (the session's warm-instance bookkeeping) can predict the count
    before selecting.
    """
    if n_procs is None:
        return default_workers(available_cores)
    n_procs = int(n_procs)
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    return n_procs


def candidate_procs(available_cores: int | None = None) -> tuple[int, ...]:
    """The ``n_procs`` values a calibrated selection ranks.

    Powers of two up to all-but-one core, the natural all-but-one count
    itself, and the uncalibrated cap-8 default — a small, deterministic
    ladder that covers both "fan wide" and "dispatch overhead beats
    parallelism" regimes without an unbounded search.
    """
    if available_cores is None:
        available_cores = os.cpu_count() or 1
    cores = max(1, int(available_cores))
    cands = {1, resolve_auto_procs(None, cores)}
    power = 2
    while power <= cores - 1:
        cands.add(power)
        power *= 2
    if cores > 1:
        cands.add(cores - 1)
    return tuple(sorted(cands))


@dataclass(frozen=True)
class Selection:
    """The auto-selector's verdict for one input."""

    backend: str
    n_procs: int
    dtype: str
    scores: dict = field(compare=False)
    reason: str = ""


def select_backend(
    dims,
    core,
    *,
    n_procs: int | None = None,
    dtype=None,
    available_cores: int | None = None,
    profile: dict | None = None,
    warm=(),
    spilled: bool = False,
    method: str = "exact",
    oversample: int = 5,
    power_iters: int = 0,
) -> Selection:
    """Pick the cheapest auto-eligible backend for this input.

    Pure and deterministic: the same ``(dims, core, n_procs, dtype,
    available_cores, profile, warm, spilled)`` always selects
    the same backend. Ties break toward the earlier entry of
    :data:`AUTO_CANDIDATES`. ``warm`` names backends whose instance
    already exists (a session's cached pools): their one-off startup
    cost is sunk and is not charged. ``spilled`` scores the run in the
    out-of-core regime — spill I/O charged at the profile's measured
    storage bandwidths, staging copies dropped (see
    :func:`estimate_seconds`) — which notably removes procpool's copy
    handicap on runs that stream from spill files anyway.

    ``n_procs``: an explicit count is honored verbatim. With
    ``n_procs=None`` and an *uncalibrated* profile the legacy cap-8
    natural default applies (and the clamp is spelled out in the
    reason); with a **calibrated** profile the selector ranks every
    :func:`candidate_procs` value per backend and the winner's cheapest
    count becomes the selection — the cost model, not a constant,
    chooses the pool size.
    """
    dims = _check_dims("dims", dims)
    core = _check_dims("core", core)
    if len(core) != len(dims):
        raise ValueError(
            f"core has {len(core)} modes but dims has {len(dims)}"
        )
    if available_cores is None:
        available_cores = os.cpu_count() or 1
    available_cores = max(1, int(available_cores))
    explicit_procs = n_procs is not None
    n_procs = resolve_auto_procs(n_procs, available_cores)
    work_dtype = resolve_dtype(np.float64, dtype) if dtype is not None else np.dtype(np.float64)
    profile = profile if profile is not None else default_profile()
    backends = profile.get("backends") or {}
    rank_procs = not explicit_procs and bool(profile.get("calibrated"))
    candidates = (
        candidate_procs(available_cores) if rank_procs else (n_procs,)
    )
    scores: dict[str, float] = {}
    chosen: dict[str, int] = {}
    warm = frozenset(warm)
    for name in AUTO_CANDIDATES:
        params = backends.get(name)
        if params is None:
            continue
        if name in warm:
            params = {**params, "startup": 0.0}
        per_candidate = {
            procs: estimate_seconds(
                params,
                dims,
                core,
                n_procs=procs,
                dtype=work_dtype,
                available_cores=available_cores,
                spilled=spilled,
                storage_params=profile.get("storage"),
                method=method,
                oversample=oversample,
                power_iters=power_iters,
            )
            for procs in candidates
        }
        # Tie-break toward fewer processes: equal modeled time means the
        # extra workers buy nothing.
        chosen[name] = min(
            per_candidate, key=lambda procs: (per_candidate[procs], procs)
        )
        scores[name] = per_candidate[chosen[name]]
    if not scores:
        raise ValueError(
            f"profile names no auto-eligible backend "
            f"(candidates: {AUTO_CANDIDATES})"
        )
    best = min(scores, key=lambda name: (scores[name], AUTO_CANDIDATES.index(name)))
    best_procs = chosen[best]
    ranked = ", ".join(
        f"{name} {scores[name]:.3g}s" for name in sorted(scores, key=scores.get)
    )
    regime = " (spilled: I/O charged, staging copies dropped)" if spilled else ""
    algo = f" method={method}" if method != "exact" else ""
    notes = []
    if rank_procs and len(candidates) > 1:
        notes.append(
            f"n_procs={best_procs} ranked cheapest of "
            f"candidates {list(candidates)} (calibrated profile)"
        )
    elif not explicit_procs:
        natural = available_cores - 1 if available_cores > 1 else 1
        if n_procs < natural:
            notes.append(
                f"n_procs clamped to {n_procs} (uncalibrated cap 8 of "
                f"{natural} usable cores; calibrate to rank candidates)"
            )
    best_max_cores = int((backends.get(best) or {}).get("max_cores", 0.0))
    if 0 < best_max_cores < min(best_procs, available_cores):
        notes.append(
            f"{best} capped at {best_max_cores} core(s) by its "
            f"max_cores parameter"
        )
    suffix = "".join(f"; {note}" for note in notes)
    reason = (
        f"modeled fastest for dims={'x'.join(map(str, dims))} "
        f"core={'x'.join(map(str, core))} on {available_cores} core(s) "
        f"with {best_procs} proc(s){algo}{regime}: {ranked}{suffix}"
    )
    logger.debug("select_backend: %s (%s)", best, ranked)
    return Selection(
        backend=best,
        n_procs=best_procs,
        dtype=work_dtype.name,
        scores=scores,
        reason=reason,
    )


# --------------------------------------------------------------------- #
# storage selection (the budget half of the cost model)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StorageSelection:
    """The storage policy's verdict for one input.

    ``codec`` / ``chunk_bytes`` only matter to spilled (``mmap``)
    selections: the codec the store will encode staged blocks with, and
    the write-through chunk size (``None`` = let the store derive it
    from the budget). Memory-mode selections keep the raw defaults.
    """

    mode: str  # "memory" or "mmap"
    memory_budget: int | None
    reason: str = ""
    codec: str = "raw"
    chunk_bytes: int | None = None

    @property
    def spilled(self) -> bool:
        return self.mode == "mmap"


def check_spill_codec(codec) -> None:
    """Raise a :class:`ValueError` naming the accepted values unless
    ``codec`` is one of :data:`SPILL_CODEC_CHOICES`."""
    if codec not in SPILL_CODEC_CHOICES:
        raise ValueError(
            f"spill_codec must be one of {SPILL_CODEC_CHOICES}, "
            f"got {codec!r}"
        )


def spill_chunk_bytes(profile: dict | None) -> int | None:
    """A calibrated profile's write-through chunk size, floored at one
    page; ``None`` (the store's default) for an uncalibrated one."""
    if not (isinstance(profile, dict) and profile.get("calibrated")):
        return None
    storage = {**_DEFAULT_STORAGE, **(profile.get("storage") or {})}
    return max(4096, int(storage["spill_chunk_bytes"]))


def select_storage(
    nbytes: int,
    storage: str = "auto",
    memory_budget: int | str | None = None,
    *,
    codec: str = "raw",
    profile: dict | None = None,
) -> StorageSelection:
    """Decide where an input's working set lives: RAM or spill files.

    ``storage`` is one of :data:`STORAGE_MODES`: ``"memory"`` and
    ``"mmap"`` are explicit; ``"auto"`` spills exactly when a memory
    budget constrains the run (``memory_budget`` argument, else
    ``$REPRO_MEMORY_BUDGET``) and the input's bytes exceed it — the same
    input-adaptive shape as backend selection, driven by metadata only.
    Pure and deterministic in its inputs, like :func:`select_backend`.

    ``memory_budget`` accepts bytes or a ``"512M"``-style string. A
    budget of 0 with ``storage="auto"`` always spills.

    Spilled selections carry ``codec`` (one of
    :data:`SPILL_CODEC_CHOICES`) and the profile's calibrated chunk
    size (:func:`spill_chunk_bytes`) as ``chunk_bytes``.
    """
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"storage must be one of {STORAGE_MODES}, got {storage!r}"
        )
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    check_spill_codec(codec)  # validate early, even for memory-mode runs
    budget = (
        parse_bytes(memory_budget)
        if memory_budget is not None
        else default_memory_budget()
    )
    if storage == "memory":
        return StorageSelection(
            mode="memory", memory_budget=budget, reason="explicit memory"
        )
    if storage == "mmap":
        reason = "explicit mmap"
    elif budget is not None and nbytes > budget:
        reason = (
            f"input is {nbytes} bytes, over the {budget}-byte "
            f"memory budget: spilling"
        )
    else:
        return StorageSelection(
            mode="memory",
            memory_budget=budget,
            reason=(
                "no memory budget set"
                if budget is None
                else f"input is {nbytes} bytes, within the {budget}-byte budget"
            ),
        )
    return StorageSelection(
        mode="mmap", memory_budget=budget, reason=reason,
        codec=codec, chunk_bytes=spill_chunk_bytes(profile),
    )


def profile_from_trace(trace) -> dict:
    """Measured spill bandwidths from one traced run's I/O spans.

    Every ``kind="io"`` span the storage layer emits (``spill:write`` /
    ``spill:read``) carries its byte count and wall seconds; aggregating
    them yields this machine-and-directory's *observed* spill bandwidth,
    which is exactly the ``storage`` term the cost model charges spilled
    runs. Returns a partial profile — ``{"storage": {...}}`` with only
    the directions the trace actually exercised — ready for
    :func:`merge_profile` or the session's ``calibration=`` argument.

    Write spans time the chunked copy to disk, so their bandwidth is a
    faithful measurement. Read spans time manifest validation plus the
    ``mmap`` call (pages fault in lazily inside the consuming kernels),
    so aggregates under one microsecond are discarded rather than
    reported as an absurd bandwidth. Session runs emit no ``spill:read``
    spans at all — their kernels map blocks through ``BlockSource`` —
    so in practice only direct :meth:`MmapStore.get` callers feed the
    read rate.

    Randomized runs contribute a second measurement: a ``rsthosvd`` /
    ``sp-rsthosvd`` phase span times the whole sketch pipeline, and with
    the trace meta's dims/core/backend the modeled :func:`init_flops`
    yield the executing backend's observed ``sketch_rate`` — returned as
    ``{"backends": {name: {"sketch_rate": ...}}}`` alongside (or instead
    of) the storage term.

    A ``spill:write`` span with a non-raw ``codec`` attribute times
    encode + encoded write, not the disk, so it is skipped.
    """
    totals = {"spill:write": [0.0, 0.0], "spill:read": [0.0, 0.0]}
    sketch_spans: list[tuple[str, dict, float]] = []
    for span in getattr(trace, "spans", ()) or ():
        kind = getattr(span, "kind", None)
        if kind == "phase" and span.name in ("rsthosvd", "sp-rsthosvd"):
            sketch_spans.append(
                (span.name, dict(span.attrs or {}), float(span.seconds))
            )
            continue
        if kind != "io":
            continue
        attrs = span.attrs or {}
        if attrs.get("codec", "raw") != "raw":
            continue
        try:
            nbytes = float(attrs.get("bytes", 0) or 0)
        except (TypeError, ValueError):
            continue
        seconds = float(span.seconds)
        if not (nbytes > 0 and math.isfinite(seconds) and seconds > 0):
            continue
        slot = totals.get(span.name)
        if slot is None:
            continue
        slot[0] += nbytes
        slot[1] += seconds
    storage: dict[str, float] = {}
    written, w_seconds = totals["spill:write"]
    if written > 0 and w_seconds > 1e-6:
        storage["spill_write_bytes_per_s"] = written / w_seconds
    read, r_seconds = totals["spill:read"]
    if read > 0 and r_seconds > 1e-6:
        storage["spill_read_bytes_per_s"] = read / r_seconds
    profile: dict = {}
    if storage:
        profile["storage"] = storage
    rate = _sketch_rate_from_spans(
        getattr(trace, "meta", None) or {}, sketch_spans
    )
    if rate is not None:
        backend, value = rate
        profile["backends"] = {backend: {"sketch_rate": value}}
    return profile


def _sketch_rate_from_spans(
    meta: dict, sketch_spans: list[tuple[str, dict, float]]
) -> tuple[str, float] | None:
    """Observed per-core sketch throughput, or ``None`` without evidence.

    The rate is normalized exactly the way :func:`estimate_seconds`
    consumes it — divided by cores, efficiency and the dtype speedup —
    so a round trip through the profile reprices the very run that was
    measured.
    """
    backend = meta.get("backend")
    dims = tuple(int(d) for d in meta.get("dims") or ())
    core = tuple(int(k) for k in meta.get("core") or ())
    if backend not in _DEFAULT_BACKENDS or not dims or len(core) != len(dims):
        return None
    flops = 0.0
    seconds = 0.0
    for name, attrs, span_seconds in sketch_spans:
        if not math.isfinite(span_seconds) or span_seconds <= 0:
            continue
        try:
            oversample = int(attrs.get("oversample", 5))
            power_iters = int(attrs.get("power_iters", 0))
        except (TypeError, ValueError):
            continue
        flops += init_flops(dims, core, name, oversample, power_iters)
        seconds += span_seconds
    if flops <= 0 or seconds <= 1e-6:
        return None
    params = _DEFAULT_BACKENDS[backend]
    cores = max(1, int(meta.get("n_procs", 1) or 1))
    max_cores = int(params["max_cores"])
    if max_cores > 0:
        cores = min(cores, max_cores)
    efficiency = float(params["efficiency"]) if cores > 1 else 1.0
    itemsize = float(meta.get("itemsize", 8) or 8)
    # Same clamp as estimate_seconds, so the measured rate round-trips.
    dtype_speedup = min(2.0, 8.0 / itemsize)
    return backend, flops / seconds / (cores * efficiency * dtype_speedup)


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #


def _probe_storage(rng, probe_bytes: int) -> dict[str, float] | None:
    """Measure spill write/read bandwidths and the best chunk size.

    One throwaway :class:`MmapStore` in the default spill root: a raw
    put/get pass gives the directory's write/read rates, and a small
    chunk-size ladder finds the fastest write-through granularity.
    Best-of is not needed — each direction moves ``probe_bytes``, big
    enough to dominate syscall noise. Returns ``None`` if the spill
    directory cannot be used at all.
    """
    from repro.storage import MmapStore  # lazy: avoids an import cycle

    data = rng.standard_normal(max(1, int(probe_bytes) // 8))
    nbytes = float(data.nbytes)
    out: dict[str, float] = {}
    try:
        store = MmapStore()
    except OSError:
        return None
    with store:
        t0 = perf_counter()
        store.put("raw", data)
        out["spill_write_bytes_per_s"] = nbytes / max(
            perf_counter() - t0, 1e-9
        )
        t0 = perf_counter()
        float(np.asarray(store.get("raw")).sum())  # fault every page
        out["spill_read_bytes_per_s"] = nbytes / max(
            perf_counter() - t0, 1e-9
        )
    best_chunk = None
    best_seconds = float("inf")
    for chunk in (256 * 2**10, 2**20, 4 * 2**20, DEFAULT_CHUNK_BYTES):
        try:
            chunked = MmapStore(chunk_bytes=chunk)
        except OSError:
            break
        with chunked:
            t0 = perf_counter()
            chunked.put("c", data)
            seconds = perf_counter() - t0
        if seconds < best_seconds:
            best_seconds = seconds
            best_chunk = chunk
    if best_chunk is not None:
        out["spill_chunk_bytes"] = float(best_chunk)
    return out


def calibrate(
    dims=(48, 40, 32),
    core=(8, 8, 8),
    *,
    repeats: int = 3,
    n_procs: int | None = None,
    backends=AUTO_CANDIDATES,
    seed: int = 0,
    storage_probe: bool = True,
    probe_bytes: int = 4 * 2**20,
) -> dict:
    """Measure per-backend throughput on this machine; returns a profile.

    For each backend the probe times ``repeats`` TTMs of a random
    ``dims`` tensor by a ``core[0] x dims[0]`` factor (taking the fastest
    repeat, standard benchmarking practice) and the one-off startup cost
    of bringing the backend up. The returned profile is the defaults with
    ``rate`` / ``startup`` replaced by measurements; persist it with
    :func:`save_profile` and it is picked up by every ``backend="auto"``
    session.

    With ``storage_probe`` (the default) the profile's ``storage``
    section is measured too — spill write/read bandwidth and the fastest
    write-through chunk size (:func:`_probe_storage`) — which is what
    arms :func:`select_storage`'s chunk size and the spilled backend
    charge with real numbers.
    """
    from repro.backends import (  # lazy: avoids an import cycle
        BackendUnavailableError,
        get_backend,
    )

    dims = _check_dims("dims", dims)
    core = _check_dims("core", core)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(dims)
    matrix = rng.standard_normal((core[0], dims[0]))
    flops = float(core[0]) * tensor.size
    profile = default_profile()
    for name in backends:
        if name not in profile["backends"]:
            continue
        start = perf_counter()
        try:
            backend = get_backend(name, n_procs=n_procs)
        except BackendUnavailableError:
            # An absent backend keeps its defaults and stays out of the
            # "measured" list; the others still calibrate. If it is still
            # unavailable at selection time, auto mode falls back past it.
            continue
        handle = backend.distribute(tensor, ())
        backend.fro_norm_sq(handle, tag="calibrate:warmup")
        startup = perf_counter() - start
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            backend.ttm(handle, matrix, 0, tag="calibrate:ttm")
            best = min(best, perf_counter() - t0)
        cores_used = max(1, min(backend.default_procs, os.cpu_count() or 1))
        params = profile["backends"][name]
        params["rate"] = flops / best / (
            cores_used * params["efficiency"] if cores_used > 1 else 1.0
        )
        params["startup"] = startup if name != "sequential" else 0.0
        profile["measured"].append(name)
        backend.close()
    storage_probed = False
    if storage_probe:
        measured_storage = _probe_storage(rng, probe_bytes)
        if measured_storage:
            profile["storage"].update(measured_storage)
            storage_probed = True
    # Only a profile with at least one real measurement counts as
    # calibrated; skipped backends are visible via the "measured" list.
    profile["calibrated"] = bool(profile["measured"]) or storage_probed
    return profile


__all__ = [
    "AUTO_CANDIDATES",
    "PROFILE_VERSION",
    "SPILL_CODEC_CHOICES",
    "STORAGE_MODES",
    "Selection",
    "StorageSelection",
    "calibrate",
    "candidate_procs",
    "check_spill_codec",
    "default_profile",
    "default_profile_path",
    "estimate_seconds",
    "init_flops",
    "load_profile",
    "merge_profile",
    "profile_from_trace",
    "resolve_auto_procs",
    "save_profile",
    "select_backend",
    "select_storage",
    "spill_chunk_bytes",
    "spill_seconds",
    "sweep_flops",
]
