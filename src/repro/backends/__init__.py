"""Execution backends: where compiled plans run.

The planner produces metadata-only :class:`~repro.core.planner.Plan`
objects; :mod:`repro.session` compiles them into backend-neutral schedules;
the backends here execute those schedules:

* :class:`SequentialBackend` — single-process numpy (the reference path);
* :class:`SimClusterBackend` — the ``repro.dist`` engine on a virtual
  cluster with exact communication-volume accounting;
* :class:`ThreadedBackend` — shared-memory block parallelism over a thread
  pool (BLAS releases the GIL);
* :class:`ProcessPoolBackend` — true multi-core block parallelism over a
  process pool with ``shared_memory``-backed tensor blocks.

``get_backend`` resolves a backend from a name or passes instances through;
``backend="auto"`` (a session-level spec, see :mod:`repro.backends.select`)
picks one adaptively from the input's metadata. A backend that cannot
serve a configuration raises :class:`BackendUnavailableError`.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend
from repro.backends.errors import BackendUnavailableError
from repro.backends.procpool import ProcessPoolBackend
from repro.backends.schedule import (
    Step,
    check_factors,
    compile_core_steps,
    compile_sthosvd_steps,
    compile_tree_steps,
    run_steps,
    run_sweep,
)
from repro.backends.select import (
    AUTO_CANDIDATES,
    STORAGE_MODES,
    Selection,
    StorageSelection,
    calibrate,
    default_profile,
    load_profile,
    merge_profile,
    profile_from_trace,
    save_profile,
    select_backend,
    select_storage,
)
from repro.backends.sequential import SequentialBackend
from repro.backends.simcluster import SimClusterBackend
from repro.backends.threaded import ThreadedBackend

#: resolvable backend names, in documentation order.
BACKEND_NAMES = ("sequential", "simcluster", "threaded", "procpool")

#: the session-level adaptive spec (not itself a backend).
AUTO_BACKEND = "auto"


def get_backend(
    spec: str | ExecutionBackend,
    *,
    cluster=None,
    n_procs: int | None = None,
    machine=None,
) -> ExecutionBackend:
    """Resolve ``spec`` into an :class:`ExecutionBackend`.

    Accepts an instance (returned as-is), or one of the names in
    :data:`BACKEND_NAMES`. ``cluster``/``n_procs``/``machine`` configure a
    freshly built :class:`SimClusterBackend`; ``n_procs`` caps the worker
    count of a fresh :class:`ThreadedBackend` or
    :class:`ProcessPoolBackend`. ``"auto"`` is resolved by
    :class:`~repro.session.TuckerSession` (selection needs the input's
    metadata) and is rejected here with a pointer.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec == AUTO_BACKEND:
        raise ValueError(
            "backend 'auto' is resolved per input by TuckerSession; "
            "construct TuckerSession(backend='auto') instead of calling "
            "get_backend('auto')"
        )
    if spec == "sequential":
        return SequentialBackend()
    if spec == "simcluster":
        if cluster is None and n_procs is None:
            raise BackendUnavailableError(
                "needs a cluster= or n_procs=", backend="simcluster"
            )
        return SimClusterBackend(cluster, n_procs=n_procs, machine=machine)
    if spec == "threaded":
        return ThreadedBackend(n_workers=n_procs)
    if spec == "procpool":
        return ProcessPoolBackend(n_workers=n_procs)
    raise ValueError(
        f"unknown backend {spec!r}; expected one of {BACKEND_NAMES} "
        f"or an ExecutionBackend instance"
    )


__all__ = [
    "ExecutionBackend",
    "BackendUnavailableError",
    "SequentialBackend",
    "SimClusterBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "AUTO_BACKEND",
    "AUTO_CANDIDATES",
    "STORAGE_MODES",
    "Selection",
    "StorageSelection",
    "select_storage",
    "calibrate",
    "default_profile",
    "load_profile",
    "merge_profile",
    "profile_from_trace",
    "save_profile",
    "select_backend",
    "get_backend",
    "Step",
    "check_factors",
    "compile_tree_steps",
    "compile_core_steps",
    "compile_sthosvd_steps",
    "run_steps",
    "run_sweep",
]
