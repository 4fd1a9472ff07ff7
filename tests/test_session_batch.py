"""Tests for batched streaming decomposition: ``TuckerSession.run_many``.

Covers the acceptance criteria of the batching layer — N same-shape
tensors compile exactly one plan and reuse one worker pool while matching
per-item sequential results to 1e-10 — plus input handling (arrays,
``.npy`` paths, generators), input-order execution with one item of
read-ahead, failure streaming, per-item adaptive backend re-selection, per-run ledger
scoping on reused backends, and plan-cache key properties.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ThreadedBackend
from repro.core.meta import TensorMeta
from repro.session import (
    BatchResult,
    TuckerSession,
    plan_cache_key,
)
from repro.tensor.random import low_rank_tensor

SHAPE_A = (12, 10, 8)
SHAPE_B = (10, 8, 6)
CORE_A = (4, 3, 3)
CORE_B = (3, 3, 2)


def tensors_a(n, start=0):
    return [
        low_rank_tensor(SHAPE_A, CORE_A, noise=0.1, seed=start + s)
        for s in range(n)
    ]


def tensors_b(n, start=100):
    return [
        low_rank_tensor(SHAPE_B, CORE_B, noise=0.1, seed=start + s)
        for s in range(n)
    ]


class TestAcceptance:
    def test_one_plan_one_pool_matches_sequential(self, monkeypatch):
        """N same-shape tensors: 1 compile, N-1 hits, one pool, 1e-10."""
        import repro.backends.procpool as procpool_mod
        from repro.backends.procpool import ProcessPoolBackend

        created = []
        real_executor = procpool_mod.ProcessPoolExecutor

        class CountingExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                created.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            procpool_mod, "ProcessPoolExecutor", CountingExecutor
        )
        tensors = tensors_a(5)
        backend = ProcessPoolBackend(n_workers=2)
        with TuckerSession(backend=backend) as session:
            batch = session.run_many(
                tensors, CORE_A,
                planner="optimal", n_procs=2, max_iters=2, tol=0.0,
            )
        assert isinstance(batch, BatchResult)
        assert batch.n_items == 5 and not batch.failures
        assert batch.plans_compiled == 1
        assert batch.cache_hits == 4
        assert [item.from_cache for item in batch.items] == [
            False, True, True, True, True
        ]
        # exactly one worker pool served the whole batch
        assert len(created) == 1
        # per-item numerics match a fresh sequential session to 1e-10
        for tensor, item in zip(tensors, batch.items):
            ref = TuckerSession().run(
                tensor, CORE_A,
                planner="optimal", n_procs=2, max_iters=2, tol=0.0,
            )
            diff = np.max(np.abs(
                item.result.decomposition.core - ref.decomposition.core
            ))
            assert diff < 1e-10
            assert item.error == pytest.approx(ref.error, abs=1e-10)

    def test_throughput_and_order(self):
        session = TuckerSession()
        batch = session.run_many(
            tensors_a(3), CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        assert [item.index for item in batch.items] == [0, 1, 2]
        assert batch.items_per_second > 0
        assert batch.seconds > 0
        stats = batch.stats()
        assert stats["n_items"] == 3.0
        assert stats["plans_compiled"] == 1.0
        assert stats["flops"] > 0

    def test_second_batch_is_all_cache_hits(self):
        session = TuckerSession()
        session.run_many(
            tensors_a(2), CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        batch = session.run_many(
            tensors_a(2, start=7), CORE_A,
            planner="optimal", n_procs=2, max_iters=1,
        )
        assert batch.plans_compiled == 0
        assert batch.cache_hits == 2


class TestInputKinds:
    def test_paths_arrays_and_generators_mix(self, tmp_path):
        arrays = tensors_a(3)
        path = tmp_path / "t0.npy"
        np.save(path, arrays[0])

        def stream():
            yield str(path)          # a path string
            yield path               # an os.PathLike
            yield arrays[2]          # an in-memory array

        session = TuckerSession()
        batch = session.run_many(
            stream(), CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        assert batch.n_items == 3
        assert batch.items[0].source == str(path)
        assert batch.items[1].source == str(path)
        assert batch.items[2].source == "item[2]"
        # the two loads of the same file agree exactly
        assert batch.items[0].error == batch.items[1].error

    def test_callable_core_dims_for_heterogeneous_stream(self):
        session = TuckerSession()
        batch = session.run_many(
            tensors_a(1) + tensors_b(1),
            lambda shape: CORE_A if shape == SHAPE_A else CORE_B,
            planner="optimal", n_procs=2, max_iters=1,
        )
        assert batch.plans_compiled == 2
        assert batch.items[0].result.plan.meta.core == CORE_A
        assert batch.items[1].result.plan.meta.core == CORE_B

    def test_bad_item_type_raises(self):
        session = TuckerSession()
        with pytest.raises(TypeError, match="ndarray or a .npy path"):
            session.run_many([42], CORE_A)

    def test_core_dims_required(self):
        with pytest.raises(ValueError, match="core_dims is required"):
            TuckerSession().run_many(tensors_a(1))

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            TuckerSession().run_many(tensors_a(1), CORE_A, on_error="ignore")

    def test_max_in_flight_is_not_an_argument(self):
        with pytest.raises(TypeError):
            TuckerSession().run_many(tensors_a(1), CORE_A, max_in_flight=2)

    def test_empty_stream_yields_empty_batch(self):
        batch = TuckerSession().run_many([], CORE_A)
        assert batch.n_items == 0 and not batch.failures
        assert batch.items_per_second == 0.0 or batch.seconds > 0


class TestInputOrder:
    """Items run in input order; item i+1 is opened and advised to the
    OS just before item i runs."""

    def test_advise_one_ahead_then_run(self, tmp_path, monkeypatch):
        import repro.session as session_module

        paths = []
        for i, t in enumerate(tensors_a(3)):
            paths.append(str(tmp_path / f"t{i}.npy"))
            np.save(paths[-1], t)
        events = []

        def index_of(array):
            return paths.index(os.fspath(array.filename))

        def advise(array, *args, **kwargs):
            events.append(("advise", index_of(array)))
            return 0

        session = TuckerSession()
        real_run = session.run

        def run(array, *args, **kwargs):
            events.append(("run", index_of(array)))
            return real_run(array, *args, **kwargs)

        monkeypatch.setattr(session_module, "warm_pages", advise)
        monkeypatch.setattr(session, "run", run)
        batch = session.run_many(
            paths, CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        assert events == [
            ("advise", 0), ("advise", 1), ("run", 0),
            ("advise", 2), ("run", 1), ("run", 2),
        ]
        assert [item.index for item in batch.items] == [0, 1, 2]

    def test_interleaved_keys_run_in_arrival_order(self, monkeypatch):
        a, b = tensors_a(2), tensors_b(2)
        session = TuckerSession()
        shapes = []
        real_run = session.run

        def run(array, *args, **kwargs):
            shapes.append(array.shape)
            return real_run(array, *args, **kwargs)

        monkeypatch.setattr(session, "run", run)
        batch = session.run_many(
            [a[0], b[0], a[1], b[1]],
            lambda shape: CORE_A if shape == SHAPE_A else CORE_B,
            planner="optimal", n_procs=2, max_iters=1,
        )
        assert shapes == [SHAPE_A, SHAPE_B, SHAPE_A, SHAPE_B]
        assert [item.index for item in batch.items] == [0, 1, 2, 3]
        assert batch.plans_compiled == 2 and batch.cache_hits == 2

    def test_failures_come_back_sorted_by_index(self, tmp_path):
        # Item 1 fails to open while item 0 is still waiting to run, so
        # its failure is recorded before item 0's run failure.
        bad = tmp_path / "broken.npy"
        bad.write_bytes(b"not an npy")
        inputs = [tensors_b(1)[0], str(bad), tensors_a(1)[0]]
        batch = TuckerSession().run_many(
            inputs,
            lambda shape: (20, 3, 3) if shape == SHAPE_B else CORE_A,
            planner="optimal", n_procs=2, max_iters=1, on_error="skip",
        )
        assert [f.index for f in batch.failures] == [0, 1]
        assert [item.index for item in batch.items] == [2]


class TestOnError:
    def test_skip_records_failures_and_streams_on(self, tmp_path):
        bad = tmp_path / "broken.npy"
        bad.write_bytes(b"not an npy")
        inputs = [tensors_a(1)[0], str(bad), tensors_a(1, start=5)[0]]
        session = TuckerSession()
        batch = session.run_many(
            inputs, CORE_A,
            planner="optimal", n_procs=2, max_iters=1, on_error="skip",
        )
        assert batch.n_items == 2
        assert [item.index for item in batch.items] == [0, 2]
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure.index == 1
        assert failure.source == str(bad)
        assert failure.kind  # exception type recorded

    def test_skip_records_run_failures_too(self):
        # The second item's core is invalid for its shape: the *run*
        # fails (not materialization), and the stream keeps going.
        inputs = tensors_a(1) + tensors_b(1)
        session = TuckerSession()
        batch = session.run_many(
            inputs,
            lambda shape: (20, 3, 3) if shape == SHAPE_B else CORE_A,
            planner="optimal", n_procs=2, max_iters=1, on_error="skip",
        )
        assert batch.n_items == 1
        assert len(batch.failures) == 1
        assert batch.failures[0].index == 1
        assert "exceeds" in batch.failures[0].error

    def test_raise_propagates_immediately(self, tmp_path):
        bad = tmp_path / "broken.npy"
        bad.write_bytes(b"not an npy")
        session = TuckerSession()
        with pytest.raises(ValueError):
            session.run_many([str(bad)], CORE_A)


class TestAutoReselection:
    def _profile(self):
        # Crafted so selection is machine-independent: sequential is slow
        # but startup-free (about 0.1 ms on the small item, 0.25 s on the
        # big one), threaded is instant but pays its 50 ms startup cold
        # and its fixed 1.2 ms of dispatch warm, procpool is never
        # competitive.
        return {
            "version": 1,
            "backends": {
                "sequential": {"rate": 2.0e7},
                "threaded": {"rate": 1.0e18, "startup": 0.05},
                "procpool": {"rate": 1.0, "startup": 1.0e6},
            },
        }

    def test_backend_reselected_per_item(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        small = low_rank_tensor((6, 5, 4), (2, 2, 2), noise=0.1, seed=0)
        big = low_rank_tensor((48, 40, 32), (8, 6, 5), noise=0.05, seed=1)
        with TuckerSession(
            backend="auto", calibration=self._profile()
        ) as session:
            batch = session.run_many(
                [small, big, small],
                lambda shape: (2, 2, 2) if shape == (6, 5, 4) else (8, 6, 5),
                planner="optimal", n_procs=2, max_iters=1,
            )
        backends = [item.backend for item in batch.items]
        assert backends == ["sequential", "threaded", "sequential"]
        assert all(item.result.auto_selected for item in batch.items)
        assert all(item.result.selection_reason for item in batch.items)

    def test_warm_pool_reused_across_auto_items(self, monkeypatch):
        import repro.backends.select as select_mod

        monkeypatch.setattr(select_mod.os, "cpu_count", lambda: 8)
        big = [
            low_rank_tensor((48, 40, 32), (8, 6, 5), noise=0.05, seed=s)
            for s in range(2)
        ]
        with TuckerSession(
            backend="auto", calibration=self._profile()
        ) as session:
            batch = session.run_many(
                big, (8, 6, 5), planner="optimal", n_procs=2, max_iters=1
            )
            assert [item.backend for item in batch.items] == [
                "threaded", "threaded"
            ]
            # one cached threaded instance serves both items
            assert list(session._backends) == [("threaded", 2)]


class TestLedgerScoping:
    """Satellite regression: reused backends must not inflate reports."""

    def test_identical_runs_report_identical_volumes(self):
        backend = ThreadedBackend(n_workers=2)
        session = TuckerSession(backend=backend)
        t = tensors_a(1)[0]
        kwargs = dict(planner="optimal", n_procs=2, max_iters=2, tol=0.0)
        r1 = session.run(t, CORE_A, **kwargs)
        r2 = session.run(t, CORE_A, **kwargs)
        for key in ("comm_volume", "flops", "events"):
            assert r1.stats[key] == r2.stats[key], key
        # the backend's own ledger stays cumulative (documented)
        assert backend.stats()["events"] == r1.stats["events"] * 2

    def test_simcluster_comm_volume_scoped_per_run(self):
        session = TuckerSession(backend="simcluster", n_procs=4)
        t = tensors_a(1)[0]
        kwargs = dict(planner="optimal", n_procs=4, max_iters=2, tol=0.0)
        r1 = session.run(t, CORE_A, **kwargs)
        r2 = session.run(t, CORE_A, **kwargs)
        assert r1.stats["comm_volume"] > 0
        # the old bug: r2 reported r1's volume on top of its own
        assert r2.stats["comm_volume"] == r1.stats["comm_volume"]
        assert session.backend.stats()["comm_volume"] == pytest.approx(
            r1.stats["comm_volume"] + r2.stats["comm_volume"]
        )

    def test_batch_ledger_is_sum_of_item_ledgers(self):
        session = TuckerSession()
        batch = session.run_many(
            tensors_a(3), CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        total = sum(item.result.stats["flops"] for item in batch.items)
        assert batch.stats()["flops"] == pytest.approx(total)
        assert batch.stats()["events"] == sum(
            item.result.stats["events"] for item in batch.items
        )

    def test_stats_since_scopes_the_protocol_summary(self):
        backend = ThreadedBackend(n_workers=2)
        session = TuckerSession(backend=backend)
        t = tensors_a(1)[0]
        kwargs = dict(planner="optimal", n_procs=2, max_iters=1)
        session.run(t, CORE_A, **kwargs)
        mark = backend.mark_stats()
        res = session.run(t, CORE_A, **kwargs)
        since = backend.stats_since(mark)
        # the protocol summary since the mark is exactly this run's stats
        assert since == res.stats
        assert since["events"] == backend.stats()["events"] / 2
        backend.close()

    def test_sthosvd_and_hooi_results_carry_scoped_ledgers(self):
        from repro.hooi.sthosvd import sthosvd

        session = TuckerSession()
        t = tensors_a(1)[0]
        res = session.sthosvd(t, CORE_A, n_procs=2, planner="optimal")
        assert res.stats["flops"] > 0
        init = sthosvd(t, CORE_A)
        hres = session.hooi(t, init, n_procs=2, planner="optimal", max_iters=1)
        assert hres.stats["flops"] > 0
        # scoped: the hooi ledger excludes the earlier sthosvd records
        assert hres.stats["events"] < session.backend.stats()["events"]


# ------------------------------------------------------------------ #
# plan-cache keys (satellite: collision coverage)
# ------------------------------------------------------------------ #

dims_and_core = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.tuples(*[st.integers(min_value=1, max_value=32)] * n),
        st.tuples(*[st.integers(min_value=1, max_value=32)] * n),
    ).map(lambda dc: (dc[0], tuple(min(k, d) for k, d in zip(dc[1], dc[0]))))
)
planner_keys = st.sampled_from(
    ["portfolio", "optimal", "chain-k", "optimal:dynamic"]
)
dtypes = st.sampled_from([np.float32, np.float64])


class TestPlanCacheKey:
    @settings(max_examples=120, deadline=None)
    @given(shape=dims_and_core, procs=st.integers(1, 64),
           planner=planner_keys, dtype=dtypes)
    def test_key_round_trips_every_component(
        self, shape, procs, planner, dtype
    ):
        dims, core = shape
        meta = TensorMeta(dims=dims, core=core)
        key = plan_cache_key(meta, procs, planner, dtype)
        # the key is exactly its components — nothing collapsed or lost
        assert key == (dims, core, procs, planner, np.dtype(dtype).name)
        assert hash(key) == hash(plan_cache_key(meta, procs, planner, dtype))

    @settings(max_examples=80, deadline=None)
    @given(shape=dims_and_core, procs=st.integers(1, 64),
           planner=planner_keys, dtype=dtypes)
    def test_any_component_change_changes_the_key(
        self, shape, procs, planner, dtype
    ):
        dims, core = shape
        meta = TensorMeta(dims=dims, core=core)
        key = plan_cache_key(meta, procs, planner, dtype)
        assert key != plan_cache_key(meta, procs + 1, planner, dtype)
        assert key != plan_cache_key(meta, procs, planner + "-x", dtype)
        other_dtype = np.float32 if np.dtype(dtype) == np.float64 else np.float64
        assert key != plan_cache_key(meta, procs, planner, other_dtype)
        bigger = TensorMeta(dims=tuple(d + 1 for d in dims), core=core)
        assert key != plan_cache_key(bigger, procs, planner, dtype)

    def test_same_meta_different_knobs_compile_distinct_plans(self):
        meta = TensorMeta(dims=(12, 10, 8), core=(4, 3, 3))
        session = TuckerSession()
        base = session.compile(meta, 2, planner="optimal")
        by_procs = session.compile(meta, 4, planner="optimal")
        by_planner = session.compile(meta, 2, planner="chain-k")
        by_dtype = session.compile(meta, 2, planner="optimal",
                                   dtype=np.float32)
        compiled = {id(base), id(by_procs), id(by_planner), id(by_dtype)}
        assert len(compiled) == 4  # four distinct CompiledPlans
        info = session.cache_info()
        assert info["misses"] == 4 and info["size"] == 4
        # and the originals are all still cached (hits, not recompiles)
        assert session.compile(meta, 2, planner="optimal") is base
        assert session.cache_info()["hits"] == 1


class TestLazyPathLoading:
    """Regression: ``.npy`` path items must never be eagerly materialized.

    ``run_many`` used to ``np.load`` each path fully before running it —
    every opened-ahead (and even every *skipped*) item paid a
    whole-tensor read. Path items now open as lazy memory mappings
    (``mmap_mode="r"``), so a waiting item is a page mapping, not a copy.
    """

    def _save_batch(self, tmp_path, n=3):
        paths = []
        for i, t in enumerate(tensors_a(n)):
            path = tmp_path / f"t{i}.npy"
            np.save(path, t)
            paths.append(str(path))
        return paths

    def test_materialize_item_returns_lazy_mapping(self, tmp_path):
        from repro.session import _materialize_item

        [path] = self._save_batch(tmp_path, n=1)
        item = _materialize_item(path, 0, CORE_A)
        assert isinstance(item.array, np.memmap)
        assert item.array.shape == SHAPE_A

    def test_every_path_load_is_mmap_mode_r(self, tmp_path, monkeypatch):
        paths = self._save_batch(tmp_path)
        seen = []
        real_load = np.load

        def spy(path, *args, **kwargs):
            seen.append(kwargs.get("mmap_mode"))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", spy)
        session = TuckerSession(backend="sequential")
        batch = session.run_many(
            paths, CORE_A, planner="optimal", n_procs=2, max_iters=1
        )
        assert batch.n_items == len(paths)
        assert seen == ["r"] * len(paths)  # no eager full-copy load

    def test_skipped_items_are_not_materialized(self, tmp_path, monkeypatch):
        """A failing item never pays a full read either."""
        paths = self._save_batch(tmp_path, n=2)
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"\x93NUMPY not really")
        loads = []
        real_load = np.load

        def spy(path, *args, **kwargs):
            loads.append((str(path), kwargs.get("mmap_mode")))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", spy)
        session = TuckerSession(backend="sequential")
        batch = session.run_many(
            [paths[0], str(bad), paths[1]], CORE_A, planner="optimal",
            n_procs=2, max_iters=1, on_error="skip",
        )
        assert batch.n_items == 2 and len(batch.failures) == 1
        assert all(mode == "r" for _, mode in loads)

    def test_lazy_batch_matches_eager_arrays(self, tmp_path):
        paths = self._save_batch(tmp_path)
        arrays = tensors_a(len(paths))
        lazy = TuckerSession(backend="sequential").run_many(
            paths, CORE_A, planner="optimal", n_procs=2, max_iters=2,
            tol=-np.inf,
        )
        eager = TuckerSession(backend="sequential").run_many(
            arrays, CORE_A, planner="optimal", n_procs=2, max_iters=2,
            tol=-np.inf,
        )
        for a, b in zip(lazy.results, eager.results):
            np.testing.assert_allclose(
                a.decomposition.core, b.decomposition.core, atol=1e-12
            )

    def test_per_item_storage_policy_in_batch(self, tmp_path):
        """Budgeted batch: big items spill, small ones stay resident."""
        big = low_rank_tensor((24, 20, 16), (4, 3, 3), noise=0.1, seed=5)
        small = low_rank_tensor((8, 6, 5), (3, 2, 2), noise=0.1, seed=6)
        budget = small.nbytes + 1  # between the two sizes
        session = TuckerSession(
            backend="sequential", memory_budget=budget,
            spill_dir=str(tmp_path),
        )
        batch = session.run_many(
            [big, small],
            lambda shape: (3, 2, 2) if shape == (8, 6, 5) else (4, 3, 3),
            planner="optimal", n_procs=2, max_iters=1,
        )
        by_shape = {
            item.result.plan.meta.dims: item.result.storage
            for item in batch.items
        }
        assert by_shape[(24, 20, 16)] == "mmap"
        assert by_shape[(8, 6, 5)] == "memory"
        assert list(tmp_path.iterdir()) == []
