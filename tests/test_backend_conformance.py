"""The backend-conformance harness.

One parametrized suite that holds *every registered backend* to the same
ExecutionBackend contract, instead of per-backend ad-hoc tests:

* **numerics** — the same compiled schedule must produce factors, cores
  and error sequences identical to the sequential reference to 1e-10,
  across a matrix of shapes and planners (and dtype preservation plus
  agreement at float32);
* **ledger tags** — executed ledger records must aggregate under exactly
  the schedule's step tags, uniformly across backends;
* **determinism** — repeated runs on fresh backend instances must be
  bit-for-bit identical;
* **signatures** — every concrete backend implements each abstract
  method with the protocol's parameter names, kinds and defaults.

Adding a backend means adding its name to ``BACKEND_NAMES``; this file
then enforces the whole contract on it automatically. A backend that is
genuinely unavailable on the host (e.g. no shared memory) is skipped via
its typed :class:`BackendUnavailableError`, never silently ignored.
"""

import abc
import inspect
from typing import Any

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    BackendUnavailableError,
    ExecutionBackend,
    get_backend,
)
from repro.core.meta import TensorMeta
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor

#: (dims, core, n_procs) — 3-D and 4-D, uneven modes, seed per case.
SHAPES = [
    ((12, 10, 8), (4, 3, 3), 4),
    ((14, 9, 11), (5, 3, 4), 4),
    ((9, 8, 7, 6), (3, 3, 2, 2), 8),
]

PLANNERS = ["optimal", "chain-k"]

#: shared-memory pool size for the worker-pool backends (kept small so the
#: harness exercises multi-block paths without oversubscribing CI hosts).
POOL_WORKERS = 3


def make_backend(name: str, n_procs: int) -> ExecutionBackend:
    """A fresh backend sized for one conformance case."""
    try:
        if name in ("threaded", "procpool"):
            return get_backend(name, n_procs=POOL_WORKERS)
        return get_backend(name, n_procs=n_procs)
    except BackendUnavailableError as exc:  # pragma: no cover - host-specific
        pytest.skip(f"{name} unavailable here: {exc}")


def tensor_for(dims, core, seed, dtype=np.float64):
    t = low_rank_tensor(dims, core, noise=0.1, seed=seed)
    return t.astype(dtype, copy=False)


_REFERENCE_CACHE: dict = {}


def reference_run(dims, core, procs, planner, dtype=np.float64, seed=None):
    """The sequential result for a case (computed once per matrix cell)."""
    if seed is None:
        seed = sum(dims)
    key = (dims, core, procs, planner, np.dtype(dtype).name, seed)
    if key not in _REFERENCE_CACHE:
        session = TuckerSession(backend="sequential")
        _REFERENCE_CACHE[key] = session.run(
            tensor_for(dims, core, seed=seed, dtype=dtype),
            core,
            planner=planner,
            n_procs=procs,
            max_iters=3,
            tol=-np.inf,  # no early stop: iteration counts must match exactly
        )
    return _REFERENCE_CACHE[key]


def assert_same_decomposition(res, ref, atol, label):
    np.testing.assert_allclose(res.errors, ref.errors, atol=atol, err_msg=label)
    np.testing.assert_allclose(
        res.decomposition.core, ref.decomposition.core, atol=atol, err_msg=label
    )
    for mode, (a, b) in enumerate(
        zip(res.decomposition.factors, ref.decomposition.factors)
    ):
        np.testing.assert_allclose(
            a, b, atol=atol, err_msg=f"{label} factor {mode}"
        )


class TestNumericalConformance:
    """Every backend reproduces the sequential reference to 1e-10."""

    @pytest.mark.parametrize("planner", PLANNERS)
    @pytest.mark.parametrize("dims,core,procs", SHAPES)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_matches_sequential(self, name, dims, core, procs, planner):
        t = tensor_for(dims, core, seed=sum(dims))
        session = TuckerSession(backend=make_backend(name, procs))
        res = session.run(
            t, core, planner=planner, n_procs=procs, max_iters=3, tol=-np.inf
        )
        ref = reference_run(dims, core, procs, planner)
        assert res.backend == name
        assert_same_decomposition(res, ref, atol=1e-10, label=name)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_sthosvd_matches_sequential(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=1)
        session = TuckerSession(backend=make_backend(name, procs))
        res = session.sthosvd(t, core, planner="optimal", n_procs=procs)
        ref = TuckerSession(backend="sequential").sthosvd(
            t, core, planner="optimal", n_procs=procs
        )
        assert res.sthosvd_error == pytest.approx(
            ref.sthosvd_error, abs=1e-10
        )
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=1e-10
        )


class TestDtypeConformance:
    """float32 stays float32 on every backend and tracks the reference."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_float32_preserved_and_agrees(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=3, dtype=np.float32)
        session = TuckerSession(backend=make_backend(name, procs))
        res = session.run(
            t, core, planner="optimal", n_procs=procs, max_iters=3, tol=-np.inf
        )
        assert res.decomposition.core.dtype == np.float32
        for f in res.decomposition.factors:
            assert f.dtype == np.float32
        ref = reference_run(dims, core, procs, "optimal", dtype=np.float32, seed=3)
        # float32 reduction orders differ across backends; agreement is
        # held to a precision-appropriate tolerance, exactness to float64.
        np.testing.assert_allclose(res.errors, ref.errors, atol=1e-5)
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=5e-2
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_float64_default(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=4)
        session = TuckerSession(backend=make_backend(name, procs))
        res = session.run(t, core, planner="optimal", n_procs=procs, max_iters=1)
        assert res.decomposition.core.dtype == np.float64


class TestLedgerConformance:
    """Executed ledger records aggregate under the schedule's step tags."""

    @staticmethod
    def _hooi_once(name, dims, core, procs):
        from repro.hooi.sthosvd import sthosvd

        t = tensor_for(dims, core, seed=6)
        init = sthosvd(t, core, mode_order="optimal")
        backend = make_backend(name, procs)
        session = TuckerSession(backend=backend)
        compiled = session.compile(
            TensorMeta(dims=dims, core=core), n_procs=procs, planner="optimal"
        )
        session.hooi(
            t, init, plan=compiled, n_procs=procs, max_iters=1, tol=-np.inf
        )
        return backend, compiled

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_step_tags_cover_ledger(self, name):
        dims, core, procs = SHAPES[0]
        backend, compiled = self._hooi_once(name, dims, core, procs)
        expected = {
            f"hooi:it0:{step.tag}"
            for step in compiled.tree_steps
            if step.op in ("ttm", "svd", "regrid")
        } | {
            f"hooi:it0:core:{step.tag}"
            for step in compiled.core_steps
            if step.op in ("ttm", "regrid")
        }
        # Regrids are identity (and unrecorded) on shared memory; only the
        # ttm/svd steps must leave records on *every* backend.
        kernel_tags = {
            f"hooi:it0:{step.tag}"
            for step in compiled.tree_steps
            if step.op in ("ttm", "svd")
        } | {
            f"hooi:it0:core:{step.tag}"
            for step in compiled.core_steps
            if step.op == "ttm"
        }
        records = backend.ledger.records
        assert records, name
        for record in records:
            if record.tag.startswith("norm"):
                continue
            assert any(
                record.tag == tag or record.tag.startswith(tag + ":")
                for tag in expected
            ), f"{name}: stray ledger tag {record.tag!r}"
        # Every ttm/svd step of the schedule left at least one record.
        seen = {
            tag
            for tag in kernel_tags
            for record in records
            if record.tag == tag or record.tag.startswith(tag + ":")
        }
        assert seen == kernel_tags, f"{name}: unexecuted steps {kernel_tags - seen}"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_stats_surface_uniform(self, name):
        dims, core, procs = SHAPES[0]
        backend, _ = self._hooi_once(name, dims, core, procs)
        stats = backend.stats()
        assert set(stats) == {
            "comm_volume",
            "flops",
            "comm_seconds",
            "compute_seconds",
            "events",
        }
        assert stats["flops"] > 0
        if name == "simcluster":
            assert stats["comm_volume"] > 0
        else:
            assert stats["comm_volume"] == 0  # one address space, honest ledger


class TestStorageConformance:
    """The storage axis: every backend x memory/mmap stores.

    A spilled run (``storage="mmap"`` with a budget that forces
    multi-block out-of-core kernels) must agree with the in-memory
    sequential reference to 1e-10, produce the *identical step-tag
    ledger* as its own in-memory run, and leave its spill directory
    empty afterward.
    """

    STORAGES = ["memory", "mmap"]

    @staticmethod
    def _run(name, storage, procs, dims, core, spill_dir):
        t = tensor_for(dims, core, seed=sum(dims))
        session = TuckerSession(
            backend=make_backend(name, procs),
            storage=storage,
            # small enough that every conformance shape cuts multiple
            # blocks per kernel when spilled
            memory_budget="16K",
            spill_dir=spill_dir,
        )
        try:
            return session.run(
                t, core, planner="optimal", n_procs=procs, max_iters=3,
                tol=-np.inf,
            )
        finally:
            session.close()

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("dims,core,procs", SHAPES)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_matches_in_memory_sequential(
        self, name, dims, core, procs, storage, tmp_path
    ):
        res = self._run(name, storage, procs, dims, core, str(tmp_path))
        ref = reference_run(dims, core, procs, "optimal")
        assert res.storage == storage
        assert_same_decomposition(
            res, ref, atol=1e-10, label=f"{name}/{storage}"
        )
        # no orphaned spill files once the run returned
        assert list(tmp_path.iterdir()) == [], f"{name}/{storage}"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_step_tag_ledgers_identical_across_storage(self, name, tmp_path):
        dims, core, procs = SHAPES[0]
        tags = {}
        for storage in self.STORAGES:
            res = self._run(
                name, storage, procs, dims, core, str(tmp_path / storage)
            )
            tags[storage] = [
                (r.category, r.op, r.tag) for r in res.ledger.records
            ]
        assert tags["memory"] == tags["mmap"], name

    #: the codec dimension of the storage axis: raw must stay bit-exact
    #: vs the resident reference; narrow is lossy by contract and must
    #: stay within its *recorded* per-block bound.
    CODECS = ["raw", "narrow"]

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_codec_matches_in_memory_sequential(self, name, codec, tmp_path):
        from repro.storage import resident_gauge

        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=sum(dims))
        gauge = resident_gauge()
        gauge.reset()
        budget = 16 * 1024
        session = TuckerSession(
            backend=make_backend(name, procs),
            storage="mmap",
            memory_budget=budget,
            spill_dir=str(tmp_path),
            spill_codec=codec,
        )
        try:
            res = session.run(
                t, core, planner="optimal", n_procs=procs, max_iters=3,
                tol=-np.inf,
            )
        finally:
            session.close()
        ref = reference_run(dims, core, procs, "optimal")
        label = f"{name}/{codec}"
        assert res.storage == "mmap", label
        assert res.spill_codec == codec
        assert res.spill_bytes_logical > 0, label
        if codec == "narrow" and name != "simcluster":
            # float32 narrowing: the recorded bound is small but nonzero,
            # the disk sees half the logical bytes encoded plus the full
            # raw scratch the first read decodes into, and the
            # decomposition stays within float32 round-off accumulation.
            assert 0 < res.spill_error_bound < 1e-5, label
            assert (
                2 * res.spill_bytes_written == 3 * res.spill_bytes_logical
            ), label
            assert_same_decomposition(res, ref, atol=1e-4, label=label)
            # the errors themselves agree far tighter than the factors
            assert abs(res.sthosvd_error - ref.sthosvd_error) < 1e-6, label
            np.testing.assert_allclose(
                res.errors, ref.errors, rtol=0, atol=1e-6, err_msg=label
            )
        elif codec == "narrow":
            # simcluster spills only its per-rank bricks, and those are
            # mutable working state — always stored raw, so a narrow
            # session stays lossless there by contract.
            assert res.spill_error_bound == 0.0, label
            assert res.spill_bytes_written == res.spill_bytes_logical, label
            assert_same_decomposition(res, ref, atol=1e-10, label=label)
        else:
            assert res.spill_error_bound == 0.0, label
            assert res.spill_bytes_written == res.spill_bytes_logical, label
            assert_same_decomposition(res, ref, atol=1e-10, label=label)
        # encode/decode lease through the gauge like every other block
        # path: the budget bound holds for encoded spills too
        assert 0 < gauge.peak <= budget, (label, gauge.peak)
        assert list(tmp_path.iterdir()) == [], label

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_float32_spilled_stays_float32(self, name, tmp_path):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=3, dtype=np.float32)
        session = TuckerSession(
            backend=make_backend(name, procs),
            storage="mmap",
            spill_dir=str(tmp_path),
        )
        res = session.run(
            t, core, planner="optimal", n_procs=procs, max_iters=1
        )
        session.close()
        assert res.decomposition.core.dtype == np.float32
        assert res.storage == "mmap"


class TestDeterminism:
    """Repeated runs on fresh backends are bit-for-bit identical."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_repeat_runs_bitwise_equal(self, name):
        dims, core, procs = SHAPES[1]
        t = tensor_for(dims, core, seed=9)
        runs = []
        for _ in range(2):
            session = TuckerSession(backend=make_backend(name, procs))
            runs.append(
                session.run(
                    t, core, planner="optimal", n_procs=procs, max_iters=2,
                    tol=-np.inf,
                )
            )
        assert runs[0].errors == runs[1].errors
        np.testing.assert_array_equal(
            runs[0].decomposition.core, runs[1].decomposition.core
        )
        for a, b in zip(
            runs[0].decomposition.factors, runs[1].decomposition.factors
        ):
            np.testing.assert_array_equal(a, b)


class TestUnavailableConfigs:
    """Incompatible configs raise the typed BackendUnavailableError."""

    def test_threaded_rejects_nonpositive_workers(self):
        with pytest.raises(BackendUnavailableError, match="worker count"):
            get_backend("threaded", n_procs=0)

    def test_procpool_rejects_nonpositive_workers(self):
        with pytest.raises(BackendUnavailableError, match="worker count"):
            get_backend("procpool", n_procs=-1)

    def test_simcluster_needs_cluster_or_procs(self):
        with pytest.raises(BackendUnavailableError, match="cluster"):
            get_backend("simcluster")

    def test_simcluster_rejects_foreign_grid(self):
        backend = make_backend("simcluster", 4)
        t = tensor_for((8, 6, 4), (2, 2, 2), seed=0)
        with pytest.raises(BackendUnavailableError, match="grid"):
            backend.distribute(t, (3, 1, 1))
        exc = None
        try:
            backend.distribute(t, (3, 1, 1))
        except BackendUnavailableError as e:
            exc = e
        assert exc.backend == "simcluster"
        assert exc.config["grid"] == (3, 1, 1)
        assert exc.config["n_procs"] == 4

    def test_session_surfaces_cluster_mismatch_with_config(self):
        session = TuckerSession(backend="simcluster", n_procs=4)
        t = tensor_for((10, 9, 8), (3, 3, 2), seed=0)
        with pytest.raises(BackendUnavailableError, match="ranks") as info:
            session.run(t, (3, 3, 2), planner="optimal", n_procs=8)
        assert info.value.config["requested_n_procs"] == 8
        assert info.value.config["cluster_n_procs"] == 4
        assert info.value.config["dims"] == (10, 9, 8)

    def test_typed_error_is_still_a_value_error(self):
        # Compatibility contract: except ValueError keeps catching it.
        assert issubclass(BackendUnavailableError, ValueError)


def concrete_backends(cls=ExecutionBackend, package="repro."):
    """Every concrete subclass of ``cls`` defined under ``package``, at
    any depth."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith(package) and not inspect.isabstract(sub):
            yield sub
        yield from concrete_backends(sub, package)


def parameters(method):
    """``(name, kind, default)`` of each parameter; annotations may narrow
    the protocol's ``Any`` handles, so they are not compared."""
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(method).parameters.values()
    ]


def drifted(cls, protocol=ExecutionBackend) -> list[str]:
    """The abstract methods of ``protocol`` whose parameters ``cls``
    changes."""
    return [
        name
        for name in sorted(protocol.__abstractmethods__)
        if parameters(getattr(cls, name))
        != parameters(getattr(protocol, name))
    ]


SIGNATURE_CASES = [
    (cls, name)
    for cls in sorted(set(concrete_backends()), key=lambda c: c.__name__)
    for name in sorted(ExecutionBackend.__abstractmethods__)
]


class _Protocol(abc.ABC):
    @abc.abstractmethod
    def kernel(self, handle: Any, mode: int, *, tag: str = "svd", init=None):
        """A keyword-only default and an optional parameter to drift."""


class _Root(abc.ABC):
    @abc.abstractmethod
    def kernel(self): ...


class _Base(_Root):
    """An abstract intermediate base, like ``PoolBackend``."""

    @abc.abstractmethod
    def extra(self): ...


class _Leaf(_Base):
    def kernel(self): ...

    def extra(self): ...


def _conforming(self, handle: np.ndarray, mode, *, tag="svd", init=None): ...
def _default(self, handle, mode, *, tag="evd", init=None): ...
def _missing(self, handle, mode, *, tag="svd"): ...
def _renamed(self, handle, axis, *, tag="svd", init=None): ...
def _positional(self, handle, mode, tag="svd", init=None): ...
def _extra(self, handle, mode, *, tag="svd", init=None, out=None): ...


class TestProtocolSignatures:
    """A caller that passes by keyword or leans on a default sees the same
    contract on every backend, including those behind an intermediate
    base such as ``PoolBackend``."""

    def test_every_registered_backend_is_found(self):
        assert {cls.name for cls in concrete_backends()} >= set(BACKEND_NAMES)

    @pytest.mark.parametrize(
        "cls, name", SIGNATURE_CASES,
        ids=[f"{cls.__name__}.{name}" for cls, name in SIGNATURE_CASES],
    )
    def test_abstract_methods_match_the_protocol(self, cls, name):
        assert parameters(getattr(cls, name)) == parameters(
            getattr(ExecutionBackend, name)
        ), f"{cls.__name__}.{name} drifts from ExecutionBackend.{name}"

    @pytest.mark.parametrize(
        "method, drifts",
        [
            (_conforming, False),
            (_default, True),
            (_missing, True),
            (_renamed, True),
            (_positional, True),
            (_extra, True),
        ],
        ids=["annotations-only", "default", "missing", "renamed", "kind",
             "extra"],
    )
    def test_drift_is_caught(self, method, drifts):
        impl = type("Impl", (_Protocol,), {"kernel": method})
        assert drifted(impl, _Protocol) == (["kernel"] if drifts else [])

    def test_search_crosses_abstract_bases(self):
        assert list(concrete_backends(_Root, __name__)) == [_Leaf]

class TestTracingConformance:
    """The observability layer holds uniformly across backends.

    Traced runs must mirror the ledger exactly (every ledger tag appears
    as a ``kind="step"`` span and vice versa) with a well-formed span
    tree; disabled tracing must leave no observer or tracer attached to
    the backend afterwards and no trace on the result.
    """

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_step_span_tags_equal_ledger_tags(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=11)
        session = TuckerSession(backend=make_backend(name, procs), trace=True)
        res = session.run(
            t, core, planner="optimal", n_procs=procs, max_iters=2,
            tol=-np.inf,
        )
        trace = res.trace
        assert trace is not None
        trace.validate()
        assert trace.step_tags() == {r.tag for r in res.ledger.records}, name
        # Per-tag multiplicity must match too, not just the set.
        from collections import Counter

        span_counts = Counter(
            s.name for s in trace.spans if s.kind == "step"
        )
        ledger_counts = Counter(r.tag for r in res.ledger.records)
        assert span_counts == ledger_counts, name

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_trace_nesting_and_meta(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=11)
        session = TuckerSession(backend=make_backend(name, procs), trace=True)
        res = session.run(
            t, core, planner="optimal", n_procs=procs, max_iters=1
        )
        trace = res.trace
        roots = trace.roots()
        assert [r.name for r in roots] == ["run"]
        phases = {s.name for s in trace.children(roots[0])}
        assert "compile" in phases
        assert "hooi" in phases
        assert "sthosvd" in phases
        assert trace.meta["backend"] == name
        assert trace.meta["dims"] == list(dims)
        assert trace.meta["metrics"]["counters"]["runs"] == 1.0
        assert res.seconds == pytest.approx(roots[0].seconds)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_disabled_tracing_detaches_cleanly(self, name):
        from repro.obs.trace import NULL_TRACER

        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=11)
        backend = make_backend(name, procs)
        session = TuckerSession(backend=backend)
        res = session.run(
            t, core, planner="optimal", n_procs=procs, max_iters=1
        )
        assert res.trace is None
        assert res.seconds > 0
        assert backend.tracer is NULL_TRACER
        assert backend.ledger.observer is None
        # The session tracer buffer must not accumulate across runs.
        session.run(t, core, planner="optimal", n_procs=procs, max_iters=1)
        assert session.tracer.mark() == 0

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_observer_restored_after_crash(self, name):
        dims, core, procs = SHAPES[0]
        backend = make_backend(name, procs)
        session = TuckerSession(backend=backend, trace=True)
        bad = tensor_for(dims, core, seed=11)
        with pytest.raises(ValueError):
            session.run(bad, (999, 3, 3), n_procs=procs)
        assert backend.ledger.observer is None
        # The failed attempt's partial spans are preserved for forensics.
        assert session.last_error_trace is not None


class TestRandomizedConformance:
    """The randomized methods' conformance axis: error bound, not bits.

    Sketch reductions run in backend-specific orders (simcluster's
    allreduce vs. the in-process ascending-block sums), and the Gram+EVD
    factor extraction amplifies those last-ulp differences — so unlike
    the exact path, cross-backend bitwise agreement is not part of the
    randomized contract. What *is*: per-backend seed determinism, and a
    reconstruction error within a constant factor of the exact STHOSVD
    error on every backend. The in-process backends contract identical
    host-drawn Gaussians over the same block discipline and must still
    agree closely with sequential.
    """

    METHODS = ("rsthosvd", "sp-rsthosvd")

    #: (1 + eps) per method. Single-pass pays a known accuracy tax: the
    #: core is solved from sketches (power iterations can't help it), so
    #: its eps is looser than the range-finder's.
    BOUND = {"rsthosvd": 1.5, "sp-rsthosvd": 2.0}

    @staticmethod
    def _true_error(arr, dec):
        from repro.tensor.ttm import ttm_chain

        recon = ttm_chain(dec.core, list(dec.factors), list(range(arr.ndim)))
        diff = recon - np.asarray(arr, dtype=recon.dtype)
        return float(
            np.linalg.norm(diff.reshape(-1))
            / np.linalg.norm(np.asarray(arr).reshape(-1))
        )

    def _run(self, name, method, dims, core, procs, seed=13):
        t = tensor_for(dims, core, seed=sum(dims))
        session = TuckerSession(backend=make_backend(name, procs))
        try:
            return t, session.run(
                t, core, planner="optimal", n_procs=procs, method=method,
                seed=seed, power_iters=1, skip_hooi=True,
            )
        finally:
            session.close()

    @pytest.mark.parametrize("dims,core,procs", SHAPES)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_error_within_bound_of_exact(self, name, method, dims, core,
                                         procs):
        t, res = self._run(name, method, dims, core, procs)
        exact = TuckerSession(backend="sequential").run(
            t, core, planner="optimal", n_procs=procs, skip_hooi=True
        )
        bound = self.BOUND[method] * max(exact.sthosvd_error, 1e-12)
        actual = self._true_error(t, res.decomposition)
        assert actual <= bound, (
            f"{name}/{method}: true error {actual} exceeds "
            f"(1+eps) x exact {exact.sthosvd_error}"
        )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_repeat_runs_are_bitwise(self, name, method):
        dims, core, procs = SHAPES[0]
        _, a = self._run(name, method, dims, core, procs)
        _, b = self._run(name, method, dims, core, procs)
        np.testing.assert_array_equal(
            a.decomposition.core, b.decomposition.core, err_msg=name
        )
        for mode, (fa, fb) in enumerate(
            zip(a.decomposition.factors, b.decomposition.factors)
        ):
            np.testing.assert_array_equal(
                fa, fb, err_msg=f"{name} factor {mode}"
            )

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["threaded", "procpool"])
    def test_in_process_pools_match_sequential(self, name, method):
        dims, core, procs = SHAPES[0]
        _, res = self._run(name, method, dims, core, procs)
        _, ref = self._run("sequential", method, dims, core, procs)
        np.testing.assert_allclose(
            res.decomposition.core, ref.decomposition.core, atol=1e-8,
            err_msg=name,
        )
        for mode, (a, b) in enumerate(
            zip(res.decomposition.factors, ref.decomposition.factors)
        ):
            np.testing.assert_allclose(
                a, b, atol=1e-8, err_msg=f"{name} factor {mode}"
            )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_randomized_phase_is_traced(self, name):
        dims, core, procs = SHAPES[0]
        t = tensor_for(dims, core, seed=sum(dims))
        session = TuckerSession(backend=make_backend(name, procs), trace=True)
        try:
            res = session.run(
                t, core, planner="optimal", n_procs=procs,
                method="rsthosvd", seed=13, skip_hooi=True,
            )
        finally:
            session.close()
        roots = res.trace.roots()
        assert res.trace.meta["algorithm"] == "rsthosvd"
        phases = {s.name for s in res.trace.children(roots[0])}
        assert "rsthosvd" in phases and "sthosvd" not in phases
