"""Input-adaptive backend selection (a-Tucker style).

Hand-picking an execution backend per tensor is exactly the kind of
decision the planner was built to make for trees and grids; this module
closes the loop for backends. Given an input's *metadata* — dims, core,
requested processor count, dtype — and the machine's available cores, it
scores every auto-eligible backend under a small calibratable cost model
and picks the cheapest:

``time(backend) = startup + tasks * per_task + copy + flops / throughput``

where ``throughput = rate * dtype_speedup * efficiency * cores_used``.
A profile holds the two parameters ``repro calibrate`` measures, ``rate``
and ``startup`` per backend, and the list of backends it measured. They
ship with conservative defaults; a measured profile is persisted as JSON
(``~/.cache/repro/``, or ``$REPRO_CALIBRATION``) that :func:`load_profile`
merges over the defaults. The other costs are :data:`FIXED_COSTS`.

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
from repro.storage import default_memory_budget, parse_bytes
from repro.util.dtypes import resolve_dtype
from repro.util.validation import check_dims

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

#: conservative built-in defaults of what a profile holds: ``rate`` is
#: sustained float64 multiply-adds per second per core, the one
#: throughput every method (exact sweeps and sketches alike) is priced
#: at; ``startup`` is the one-off cost of bringing the backend up
#: (process pools fork + import). A profile must keep ``rate`` > 0 and
#: ``startup`` >= 0.
_DEFAULT_BACKENDS = {
    "sequential": {"rate": 2.0e9, "startup": 0.0},
    "threaded": {"rate": 2.0e9, "startup": 2.0e-3},
    "procpool": {"rate": 2.0e9, "startup": 1.5e-1},
}

#: the costs calibration does not measure, fixed per backend:
#: ``per_task`` is the dispatch overhead per block task; ``efficiency``
#: discounts parallel scaling; ``copy_elems_per_s`` charges moving the
#: tensor into backend-owned storage (shared-memory segments), 0 = free;
#: ``max_cores`` caps the cores a backend uses, 0 = uncapped.
FIXED_COSTS = {
    "sequential": {
        "per_task": 0.0, "efficiency": 1.0, "copy_elems_per_s": 0.0,
        "max_cores": 1,
    },
    "threaded": {
        "per_task": 1.0e-4, "efficiency": 0.85, "copy_elems_per_s": 0.0,
        "max_cores": 0,
    },
    "procpool": {
        "per_task": 2.0e-3, "efficiency": 0.90, "copy_elems_per_s": 1.0e9,
        "max_cores": 0,
    },
}

#: initialization methods the cost model knows how to charge.
_METHODS = ("exact", "rsthosvd", "sp-rsthosvd")


def default_profile() -> dict:
    """A fresh copy of the built-in profile."""
    return {
        "version": PROFILE_VERSION,
        "measured": [],
        "backends": {k: dict(v) for k, v in _DEFAULT_BACKENDS.items()},
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

    Unknown backends, parameter keys and sections are dropped silently:
    so are the ``storage`` section, the ``calibrated`` flag and the
    fixed costs (:data:`FIXED_COSTS`) that older calibration files
    carry. Every known backend keeps default values for any parameter
    the partial omits, so hand-written overrides like ``{"backends":
    {"procpool": {"rate": 5e9}}}`` are valid. The ``measured`` list
    (which backends calibration actually probed) is carried through,
    filtered to known backends; a profile is calibrated exactly when it
    is non-empty.

    Merging never raises: a value of the wrong type (``"rate": "fast"``,
    a null, a nested object) or out of range (non-finite; ``rate`` not
    > 0; ``startup`` negative) keeps its default and is reported in a
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
            if not math.isfinite(value) or (
                value <= 0 if key == "rate" else value < 0
            ):
                invalid.append(f"{name}.{key}")
                continue
            profile["backends"][name][key] = value
    measured = partial.get("measured") or []
    if not isinstance(measured, (list, tuple)):
        invalid.append("measured")
        measured = []
    profile["measured"] = [
        name
        for name in measured
        if isinstance(name, str) and name in profile["backends"]
    ]
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


def init_flops(
    dims: tuple[int, ...],
    core: tuple[int, ...],
    method: str = "exact",
    oversample: int = 5,
    power_iters: int = 0,
) -> float:
    """Modeled multiply-adds of one initialization pass, per method.

    ``"exact"`` is a HOOI-shaped sweep: each mode's first TTM from the
    full tensor plus its Gram accumulation, ``(d+1)/2 * card``. The
    randomized methods replace each mode's Gram with a sketch
    contraction of width ``s = min(k + oversample, d)`` — the whole
    point of sketching is ``s << d``. ``rsthosvd`` keeps the
    sequential-truncation TTM term and adds one TTM-plus-cross-Gram
    round per power iteration; ``sp-rsthosvd`` drops the TTMs (the input
    is never modified) but adds the core sketch's dominant first
    contraction. A deliberate over-approximation
    monotone in tensor size, which is all selection needs.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    card = float(np.prod([float(d) for d in dims]))
    if method == "exact":
        ttm = sum(float(k) * card for k in core)
        gram = sum(float(d + 1) / 2.0 * card for d in dims)
        return ttm + gram
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
    name: str,
    params: dict,
    dims: tuple[int, ...],
    core: tuple[int, ...],
    *,
    n_procs: int,
    dtype,
    available_cores: int,
    spilled: bool = False,
    method: str = "exact",
    oversample: int = 5,
    power_iters: int = 0,
) -> float:
    """Modeled wall seconds of one sweep on backend ``name``.

    ``params`` is the backend's profile entry (``rate``, ``startup``);
    the rest of the price is the backend's :data:`FIXED_COSTS`.

    ``spilled`` switches the model to the out-of-core regime: the copy
    charge is *dropped* (workers memory-map the spill blocks in place —
    there is no staging copy into backend-owned segments). Staging and
    reading the spill files costs every backend the same, so the model
    leaves it out: it could not change a verdict.

    ``method`` charges the pass method-aware: the randomized methods'
    flops come from :func:`init_flops` (sketch widths instead of Gram
    halves), so a randomized run is not mispriced as an exact sweep.
    Every method runs at the backend's one calibrated ``rate``.
    """
    fixed = FIXED_COSTS[name]
    flops = init_flops(dims, core, method, oversample, power_iters)
    # resolve_dtype admits float32 and float64 only: float32 streams
    # twice the elements per second.
    dtype_speedup = 8.0 / np.dtype(dtype).itemsize
    cores_used = max(1, min(int(n_procs), int(available_cores)))
    if fixed["max_cores"] > 0:
        cores_used = min(cores_used, fixed["max_cores"])
    efficiency = fixed["efficiency"] if cores_used > 1 else 1.0
    throughput = (
        float(params["rate"]) * dtype_speedup * efficiency * cores_used
    )
    seconds = float(params["startup"]) + flops / throughput
    # ~2 kernels per mode per sweep, each fanning out one task per worker.
    n_tasks = 2.0 * len(dims) * cores_used if cores_used > 1 else 0.0
    seconds += n_tasks * fixed["per_task"]
    copy_rate = fixed["copy_elems_per_s"]
    if not spilled and copy_rate > 0:
        seconds += float(np.prod([float(d) for d in dims])) / copy_rate
    return seconds


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
    out-of-core regime — staging copies dropped (see
    :func:`estimate_seconds`) — which removes procpool's copy handicap
    on runs that stream from spill files anyway.

    ``n_procs``: an explicit count is honored verbatim. With
    ``n_procs=None`` and an *uncalibrated* profile (empty ``measured``)
    the legacy cap-8 natural default applies (and the clamp is spelled
    out in the reason); with a **calibrated** profile (a non-empty
    ``measured``) the selector ranks every :func:`candidate_procs` value
    per backend and the winner's cheapest count becomes the selection —
    the cost model, not a constant, chooses the pool size.
    """
    dims = check_dims(dims, "dims")
    core = check_dims(core, "core")
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
    rank_procs = not explicit_procs and bool(profile.get("measured"))
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
                name,
                params,
                dims,
                core,
                n_procs=procs,
                dtype=work_dtype,
                available_cores=available_cores,
                spilled=spilled,
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
    regime = " (spilled: staging copies dropped)" if spilled else ""
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
    """The storage policy's verdict for one input: where it lives, and why."""

    mode: str  # "memory" or "mmap"
    memory_budget: int | None
    reason: str = ""

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


def select_storage(
    nbytes: int,
    storage: str = "auto",
    memory_budget: int | str | None = None,
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
    """
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"storage must be one of {STORAGE_MODES}, got {storage!r}"
        )
    nbytes = int(nbytes)
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
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
    return StorageSelection(mode="mmap", memory_budget=budget, reason=reason)


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #


def calibrate(
    dims=(48, 40, 32),
    core=(8, 8, 8),
    *,
    repeats: int = 3,
    n_procs: int | None = None,
    backends=AUTO_CANDIDATES,
    seed: int = 0,
) -> dict:
    """Measure per-backend throughput on this machine; returns a profile.

    For each backend the probe times ``repeats`` TTMs of a random
    ``dims`` tensor by a ``core[0] x dims[0]`` factor (taking the fastest
    repeat, standard benchmarking practice) and the one-off startup cost
    of bringing the backend up. ``n_procs`` sizes the pool backends;
    by default they run at their natural size but with two workers at
    least, so the probe starts (and times) a real pool even on a machine
    of one or two cores. The returned profile is the defaults with
    ``rate`` / ``startup`` replaced by measurements and the probed
    backends listed in ``measured``; persist it with :func:`save_profile`
    and it is picked up by every ``backend="auto"`` session.
    """
    from repro.backends import (  # lazy: avoids an import cycle
        BackendUnavailableError,
        get_backend,
    )

    dims = check_dims(dims, "dims")
    core = check_dims(core, "core")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(dims)
    matrix = rng.standard_normal((core[0], dims[0]))
    flops = float(core[0]) * tensor.size
    profile = default_profile()
    # a one-worker pool runs its tasks in the parent and never starts
    probe_procs = max(2, default_workers()) if n_procs is None else n_procs
    for name in backends:
        if name not in profile["backends"]:
            continue
        start = perf_counter()
        try:
            backend = get_backend(name, n_procs=probe_procs)
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
            cores_used * FIXED_COSTS[name]["efficiency"]
            if cores_used > 1
            else 1.0
        )
        params["startup"] = startup if name != "sequential" else 0.0
        profile["measured"].append(name)
        backend.close()
    return profile


__all__ = [
    "AUTO_CANDIDATES",
    "FIXED_COSTS",
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
    "resolve_auto_procs",
    "save_profile",
    "select_backend",
    "select_storage",
]
