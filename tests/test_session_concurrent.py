"""Concurrent-session correctness: locks, shared caches, prefetch.

The session's contract under threads (see ``TuckerSession._run_lock``):
cache operations are safe from any thread, and whole runs serialize on
one session — concurrency across sessions, correctness within one.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.dist.stats import StatsLedger
from repro.obs import safe_rate
from repro.session import CompiledPlan, Prefetcher, TuckerSession
from repro.tensor.random import low_rank_tensor, random_tensor


class TestSharedSessionThreads:
    def test_shared_session_serializes_and_stays_correct(self):
        tensors = [random_tensor((9, 8, 7), seed=i) for i in range(6)]
        with TuckerSession(backend="sequential") as ref_session:
            expected = [
                ref_session.run(t, (3, 3, 2), max_iters=2) for t in tensors
            ]
        results: list = [None] * len(tensors)
        errors: list = []
        with TuckerSession(backend="sequential") as session:
            def work(i):
                try:
                    results[i] = session.run(
                        tensors[i], (3, 3, 2), max_iters=2
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(tensors))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            info = session.cache_info()
        assert not errors
        # One shape, one plan: every thread after the first hits the LRU.
        assert info["size"] == 1
        assert info["hits"] >= len(tensors) - 1
        for got, ref in zip(results, expected):
            np.testing.assert_allclose(
                got.decomposition.core,
                ref.decomposition.core,
                atol=1e-10,
            )

    def test_private_sessions_run_concurrently_and_agree(self):
        tensors = [random_tensor((8, 8, 8), seed=i) for i in range(4)]
        with TuckerSession(backend="sequential") as ref_session:
            expected = [
                ref_session.run(t, (2, 2, 2), max_iters=2) for t in tensors
            ]
        results: list = [None] * len(tensors)
        errors: list = []

        def work(i):
            try:
                with TuckerSession(backend="sequential") as session:
                    results[i] = session.run(
                        tensors[i], (2, 2, 2), max_iters=2
                    )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(tensors))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        for got, ref in zip(results, expected):
            np.testing.assert_allclose(
                got.decomposition.core,
                ref.decomposition.core,
                atol=1e-10,
            )

    def test_cache_ops_race_free_under_churn(self):
        metas = [((7, 6, 5), (2, 2, 2)), ((6, 6, 6), (3, 3, 3))]
        errors: list = []
        with TuckerSession(backend="sequential", cache_size=1) as session:
            def churn(i):
                try:
                    dims, core = metas[i % 2]
                    for _ in range(5):
                        session.run(
                            random_tensor(dims, seed=i),
                            core,
                            max_iters=1,
                        )
                        session.cache_info()
                        if i == 0:
                            session.clear_cache()
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            info = session.cache_info()
        assert not errors
        assert info["size"] <= 1  # cache_size respected through the races


class TestSharedCompiledPlan:
    """A compiled plan is metadata: any number of sessions, on any number
    of threads, may replay one ``CompiledPlan`` object at once. (It used
    to own the Gram buffers its runs accumulated into, and two runs on
    two threads silently corrupted each other's factors.)"""

    DIMS, CORE = (160, 150, 140), (8, 8, 8)
    RUNS = 10

    def test_two_sessions_two_threads_one_plan(self):
        tensors = [
            low_rank_tensor(self.DIMS, self.CORE, noise=0.1, seed=seed)
            for seed in (0, 1)
        ]
        with TuckerSession("sequential") as session:
            compiled = session.compile(
                TensorMeta(dims=self.DIMS, core=self.CORE)
            )
            expected = [
                session.run(t, plan=compiled, max_iters=2) for t in tensors
            ]
        results: list[list] = [[] for _ in tensors]
        errors: list = []
        barrier = threading.Barrier(len(tensors))

        def work(i):
            try:
                with TuckerSession("sequential") as session:
                    barrier.wait(30)
                    for _ in range(self.RUNS):
                        results[i].append(
                            session.run(
                                tensors[i], plan=compiled, max_iters=2
                            )
                        )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(tensors))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        assert not errors
        for runs, ref in zip(results, expected):
            assert len(runs) == self.RUNS
            for got in runs:
                assert got.error == pytest.approx(ref.error, abs=1e-10)
                np.testing.assert_allclose(
                    got.decomposition.core,
                    ref.decomposition.core,
                    atol=1e-10,
                )

    def test_compiled_plan_holds_no_mutable_state(self):
        t = low_rank_tensor((12, 10, 8), (4, 3, 3), noise=0.1, seed=0)
        with TuckerSession("sequential") as session:
            compiled = session.compile(
                TensorMeta(dims=t.shape, core=(4, 3, 3))
            )
            for f in dataclasses.fields(CompiledPlan):
                assert not isinstance(
                    getattr(compiled, f.name), (dict, list, set, np.ndarray)
                ), f.name
            before = {k: id(v) for k, v in compiled.__dict__.items()}
            session.run(t, plan=compiled, max_iters=2)
            session.sthosvd(t, plan=compiled)
        assert {k: id(v) for k, v in compiled.__dict__.items()} == before


class TestLedgerThreadSafety:
    def test_concurrent_add_loses_nothing(self):
        ledger = StatsLedger()
        n_threads, per_thread = 8, 200

        def add(t):
            for i in range(per_thread):
                ledger.add_comm("send", f"t{t}:e{i}", 1, 1.0, 0.0)

        threads = [
            threading.Thread(target=add, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert len(ledger) == n_threads * per_thread
        assert ledger.volume() == float(n_threads * per_thread)

    def test_mark_since_with_concurrent_writers(self):
        ledger = StatsLedger()
        ledger.add_comm("send", "before", 1, 1.0, 0.0)
        mark = ledger.mark()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                ledger.add_comm("send", f"bg:{i}", 1, 1.0, 0.0)
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(50):
                tail = ledger.since(mark)
                assert all(r.tag != "before" for r in tail.records)
        finally:
            stop.set()
            t.join(30)


class TestRunManyPrefetch:
    def _paths(self, tmp_path, n=3):
        paths = []
        for i in range(n):
            p = tmp_path / f"t{i}.npy"
            np.save(p, random_tensor((8, 7, 6), seed=i))
            paths.append(p)
        return paths

    def test_prefetch_preserves_results(self, tmp_path):
        paths = self._paths(tmp_path)
        arrays = lambda: [np.load(p, mmap_mode="r") for p in paths]  # noqa: E731
        with TuckerSession(backend="sequential") as session:
            warm = session.run_many(arrays(), (2, 2, 2), max_iters=2)
        with TuckerSession(backend="sequential") as session:
            cold = session.run_many(
                arrays(), (2, 2, 2), max_iters=2, prefetch=False
            )
        for a, b in zip(warm.results, cold.results):
            np.testing.assert_allclose(
                a.decomposition.core, b.decomposition.core, atol=0
            )

    def test_prefetch_counters_record_memmap_bytes(self, tmp_path):
        paths = self._paths(tmp_path)
        arrays = [np.load(p, mmap_mode="r") for p in paths]
        with TuckerSession(backend="sequential") as session:
            session.run_many(arrays, (2, 2, 2), max_iters=1)
            counters = session.metrics.snapshot()["counters"]
        # Items 2..n are visible as "next" while their predecessors run.
        assert counters.get("prefetch_items", 0.0) >= 1.0
        assert counters.get("prefetch_bytes", 0.0) > 0.0

    def test_resident_arrays_skip_prefetch(self):
        tensors = [random_tensor((7, 6, 5), seed=i) for i in range(3)]
        with TuckerSession(backend="sequential") as session:
            batch = session.run_many(tensors, (2, 2, 2), max_iters=1)
            counters = session.metrics.snapshot()["counters"]
        assert batch.n_items == 3
        assert counters.get("prefetch_bytes", 0.0) == 0.0


class TestPrefetcherUnit:
    def test_schedule_and_close_idempotent(self, tmp_path):
        p = tmp_path / "x.npy"
        np.save(p, np.ones((64, 64)))
        prefetcher = Prefetcher()
        prefetcher.schedule(np.load(p, mmap_mode="r"))
        prefetcher.schedule(None)  # no-op
        prefetcher.schedule(np.ones((4, 4)))  # resident: skipped
        prefetcher.close()
        prefetcher.close()  # idempotent
        assert prefetcher.bytes_warmed == 64 * 64 * 8
        assert prefetcher.items_warmed == 1

    def test_never_started_close_is_cheap(self):
        prefetcher = Prefetcher()
        prefetcher.close()
        assert prefetcher.bytes_warmed == 0


class TestSafeRate:
    def test_normal_rate(self):
        assert safe_rate(10, 2.0) == 5.0

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf")])
    def test_degenerate_durations_rate_zero(self, seconds):
        assert safe_rate(10, seconds) == 0.0

    def test_zero_count(self):
        assert safe_rate(0, 5.0) == 0.0
