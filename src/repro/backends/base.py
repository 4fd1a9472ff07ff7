"""The :class:`ExecutionBackend` protocol.

A backend is the thing a :class:`~repro.session.CompiledPlan` runs on. It
exposes exactly the capabilities the paper's execution layer needs — TTM,
Gram/leading-factor extraction, randomized sketching (single-pass, with
its power-iteration companion ``cross_gram``), regridding, and the two
reductions (Frobenius norm, gather) — over an opaque *handle* type of its
choosing: a plain ndarray for the sequential and threaded backends, a
``ShmTensor`` (a named shared-memory segment) for the process pool, a
:class:`~repro.storage.StoredTensor` on any of the three once a run has
spilled, a :class:`~repro.dist.dtensor.DistTensor` for the virtual
cluster. Every
backend also carries a :class:`~repro.dist.stats.StatsLedger` so callers can
read volumes/FLOPs/seconds uniformly via :meth:`ExecutionBackend.stats`.

The one schedule interpreter (:func:`repro.backends.schedule.run_steps`,
which replays every phase of a run as a compiled ``Step`` program) is
written purely against this interface; adding a backend means implementing
these nine primitives, nothing more — and for a shared-memory machine most
of that is already written: :mod:`repro.tensor.kernels` holds the kernels
and :mod:`repro.backends.blockkernels` the drivers, so a new backend
supplies a block source and a map.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.dist.stats import StatsLedger
from repro.obs.trace import NULL_TRACER


class ExecutionBackend(abc.ABC):
    """Abstract execution backend: primitives + a stats ledger.

    Handles are opaque to callers; only the backend that produced a handle
    may consume it. ``tag`` arguments label ledger records with the usual
    ``component:detail`` convention.
    """

    #: short identifier ("sequential", "simcluster", "threaded", ...)
    name: str = "abstract"

    #: whether :meth:`regrid` hands its input back untouched (one address
    #: space). Only then can a chain's outputs stand in for the tree's —
    #: the cross-phase reuse of :class:`repro.backends.schedule.Handoff`;
    #: with real grids every program regrids for itself.
    regrid_is_identity: bool = False

    def __init__(self) -> None:
        self.ledger = StatsLedger()
        #: where span-producing backends report (procpool worker
        #: fragments, out-of-core block I/O). The session points this at
        #: its live tracer for traced runs; the default no-op tracer
        #: keeps untraced kernels branch- and allocation-free.
        self.tracer = NULL_TRACER

    # -- planning ------------------------------------------------------- #

    @property
    def default_procs(self) -> int:
        """Processor count plans default to when the caller names none."""
        return 1

    # -- data placement -------------------------------------------------- #

    @abc.abstractmethod
    def distribute(
        self, tensor: np.ndarray, grid: tuple[int, ...], *, store=None
    ) -> Any:
        """Place a global ndarray per ``grid`` and return a handle.

        ``store``, when given, is a :class:`~repro.storage.MmapStore`
        the run has spilled to: the backend must place the tensor
        *through the store* (out-of-core block handles) instead of
        materializing it in RAM, and every kernel must accept the
        resulting handle. ``store=None`` keeps the historical fully
        resident behavior.
        """

    @abc.abstractmethod
    def gather(self, handle: Any) -> np.ndarray:
        """Assemble a handle back into a global ndarray."""

    @abc.abstractmethod
    def shape(self, handle: Any) -> tuple[int, ...]:
        """Global shape of the tensor behind ``handle``."""

    # -- kernels ---------------------------------------------------------- #

    @abc.abstractmethod
    def ttm(
        self, handle: Any, matrix: np.ndarray, mode: int, *, tag: str = "ttm"
    ) -> Any:
        """``Z = X x_mode matrix`` (``matrix`` is ``K x L_mode``)."""

    @abc.abstractmethod
    def leading_factor(
        self, handle: Any, mode: int, k: int, *, tag: str = "svd"
    ) -> np.ndarray:
        """Leading-``k`` left factor of the mode-``mode`` unfolding.

        The Gram + EVD route of the paper's engine. Always returns a
        replicated (plain ndarray) factor with the deterministic sign
        convention.
        """

    @abc.abstractmethod
    def sketch(
        self, handle: Any, specs, *, tag: str = "sketch"
    ) -> tuple[list[np.ndarray], float]:
        """All randomized sketches of ``handle`` in **one pass**, plus norm.

        ``specs`` is a sequence of :class:`~repro.backends.sketch
        .SketchSpec`; the return is ``(sketches, norm_sq)`` where
        ``sketches[i]`` is spec ``i``'s replicated (plain ndarray)
        sketch tensor and ``norm_sq`` is the input's squared Frobenius
        norm, accumulated in the same pass. The single-pass contract is
        load-bearing: a spilled input's blocks are each read exactly
        once no matter how many specs are given, and the virtual
        cluster reduces each small sketch instead of the input.
        """

    @abc.abstractmethod
    def cross_gram(
        self, handle: Any, other: Any, mode: int, *, tag: str = "xgram"
    ) -> np.ndarray:
        """``unfold(A, mode) @ unfold(B, mode).T`` as a replicated ndarray.

        ``other`` must come from the same backend and agree with
        ``handle`` on every mode length except ``mode``. This is the
        power-iteration primitive: with ``B = A x_mode Q^T`` it yields
        ``A_(mode) A_(mode)^T Q`` without ever forming the Gram matrix.
        """

    @abc.abstractmethod
    def regrid(
        self, handle: Any, grid: tuple[int, ...], *, tag: str = "regrid"
    ) -> Any:
        """Move the tensor onto ``grid`` (a no-op for shared memory)."""

    @abc.abstractmethod
    def fro_norm_sq(self, handle: Any, *, tag: str = "norm") -> float:
        """Squared Frobenius norm (a full reduction)."""

    # -- ledger ----------------------------------------------------------- #

    def stats(self) -> dict[str, float]:
        """Uniform ledger summary: volumes, FLOPs and modeled/measured time.

        The ledger is *cumulative* over the backend's lifetime: a reused
        backend keeps accumulating across runs. Callers that need one
        run's worth of records should scope with :meth:`mark_stats` /
        :meth:`ledger_since` (the session attaches a per-run ledger to
        every :class:`~repro.session.TuckerResult` this way) or call
        :meth:`reset_stats` between runs.
        """
        return self.ledger.summary()

    def mark_stats(self) -> int:
        """Opaque ledger position; pass to :meth:`ledger_since` later."""
        return self.ledger.mark()

    def ledger_since(self, mark: int) -> StatsLedger:
        """The records appended since ``mark`` as a standalone ledger."""
        return self.ledger.since(mark)

    def stats_since(self, mark: int) -> dict[str, float]:
        """Uniform summary of only the records appended since ``mark``."""
        return self.ledger.since(mark).summary()

    def reset_stats(self) -> None:
        self.ledger.clear()

    # -- lifecycle -------------------------------------------------------- #

    def close(self) -> None:
        """Release any workers/resources the backend holds.

        A no-op by default; the block backends drop their Gram scratch
        and pools. Closing must leave the backend usable (both come back
        on next use), so callers can close eagerly without tracking state.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
