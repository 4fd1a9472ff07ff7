"""The serving subsystem: requests, admission, the shared queue, server,
protocol.

The server tests drive a real in-process :class:`TuckerServer` (worker
threads, private sessions) on small tensors; blocking scenarios pin the
shared admission budget from the test thread so queue/deadline/cancel
states are reached deterministically instead of by racing timers.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import threading

import numpy as np
import pytest

import repro.serve.request as request_mod
from repro.serve import (
    AdmissionController,
    AdmissionError,
    ServeRequest,
    ServerStats,
    Ticket,
    TuckerServer,
    parse_request,
    serve_lines,
)
from repro.session import TuckerSession


def _random(dims, seed=0):
    from repro.tensor.random import random_tensor

    return random_tensor(dims, seed=seed)


# --------------------------------------------------------------------- #
# requests and parsing
# --------------------------------------------------------------------- #


class TestServeRequest:
    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ServeRequest(core=(2, 2))
        with pytest.raises(ValueError, match="exactly one"):
            ServeRequest(
                core=(2, 2), array=np.zeros((4, 4)), dims=(4, 4)
            )

    def test_random_spec_materializes_deterministically(self):
        req = ServeRequest(core=(2, 2, 2), dims=(5, 4, 3), seed=7)
        a = req.materialize()
        b = req.materialize()
        assert a.shape == (5, 4, 3)
        np.testing.assert_array_equal(a, b)

    def test_path_source_header_peek(self, tmp_path):
        path = str(tmp_path / "x.npy")
        np.save(path, np.zeros((6, 5, 4), dtype=np.float32))
        req = ServeRequest(core=(2, 2, 2), path=path)
        assert req.input_shape() == (6, 5, 4)
        assert req.input_dtype_name() == "float32"
        assert req.nbytes() == 6 * 5 * 4 * 4

    def test_path_header_of_a_version_2_file(self, tmp_path):
        path = str(tmp_path / "v2.npy")
        out = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.float32, shape=(5, 4, 3),
            version=(2, 0),
        )
        out[...] = 1.0
        del out
        req = ServeRequest(core=(2, 2, 2), path=path)
        assert req.input_shape() == (5, 4, 3)
        assert req.nbytes() == 5 * 4 * 3 * 4
        np.testing.assert_array_equal(req.materialize(), 1.0)

    def test_path_that_is_not_one_tensor_rejected(self, tmp_path):
        objects = str(tmp_path / "objects.npy")
        np.save(objects, np.array([{"a": 1}], dtype=object))
        archive = str(tmp_path / "archive.npz")
        np.savez(archive, x=np.zeros(3))
        for path in (objects, archive):
            with pytest.raises(ValueError):
                ServeRequest(core=(1,), path=path).input_shape()

    def test_non_float32_runs_float64(self):
        req = ServeRequest(
            core=(2, 2), array=np.zeros((3, 3), dtype=np.int32)
        )
        assert req.input_dtype_name() == "float64"

    def test_bad_method_and_deadline_rejected(self):
        with pytest.raises(ValueError, match="method"):
            ServeRequest(core=(2, 2), dims=(4, 4), method="hooi!")
        with pytest.raises(ValueError, match="deadline"):
            ServeRequest(core=(2, 2), dims=(4, 4), deadline=0.0)


class TestParseRequest:
    def test_minimal_random_payload(self):
        req = parse_request(
            {"core": [2, 2], "random": {"dims": [5, 5], "seed": 3}},
            index=4,
        )
        assert req.dims == (5, 5)
        assert req.seed == 3
        assert req.id == "req4"
        assert req.method == "run"

    def test_inline_data(self):
        req = parse_request(
            {"core": [1, 1], "data": [[1.0, 2.0], [3.0, 4.0]], "id": "d"}
        )
        np.testing.assert_array_equal(
            req.array, np.array([[1.0, 2.0], [3.0, 4.0]])
        )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            parse_request({"core": [2, 2], "dims": [4, 4]})

    def test_core_required(self):
        with pytest.raises(ValueError, match="core"):
            parse_request({"random": {"dims": [4, 4]}})

    def test_bad_random_spec(self):
        with pytest.raises(ValueError, match="random"):
            parse_request({"core": [2, 2], "random": [4, 4]})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_request([1, 2, 3])


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_charge_is_capped_at_budget(self):
        ctl = AdmissionController(1000)
        assert ctl.charge_for(400) == 400
        assert ctl.charge_for(5000) == 1000  # oversized runs alone, spilled

    def test_unbudgeted_never_blocks(self):
        ctl = AdmissionController(None)
        charge = ctl.acquire(10**12, timeout=0.0)
        assert charge == 10**12
        assert ctl.gauge.current == 10**12
        ctl.release(charge)
        assert ctl.gauge.current == 0

    def test_budget_serializes_oversubscription(self):
        ctl = AdmissionController(1000)
        first = ctl.acquire(800)
        acquired = threading.Event()
        charges = []

        def second():
            charges.append(ctl.acquire(800, timeout=5.0))
            acquired.set()

        t = threading.Thread(target=second, daemon=True)
        t.start()
        assert not acquired.wait(0.05)  # must be blocked, 1600 > 1000
        ctl.release(first)
        assert acquired.wait(5.0)
        t.join(5.0)
        assert charges == [800]
        ctl.release(800)
        assert ctl.waits == 1

    def test_timeout_raises_typed_error(self):
        ctl = AdmissionController(1000)
        ctl.acquire(1000)
        with pytest.raises(AdmissionError) as exc:
            ctl.acquire(500, timeout=0.01)
        assert exc.value.reason == "budget_timeout"
        ctl.release(1000)

    def test_string_budget_and_validation(self):
        assert AdmissionController("1K").budget == 1024
        with pytest.raises(ValueError):
            AdmissionController(0)

    def test_snapshot_shape(self):
        ctl = AdmissionController(2048)
        ctl.acquire(100)
        snap = ctl.snapshot()
        assert snap["budget"] == 2048
        assert snap["charged"] == 100
        assert snap["charged_peak"] == 100
        assert snap["waits"] == 0


# --------------------------------------------------------------------- #
# tickets
# --------------------------------------------------------------------- #


class TestTicket:
    def _ticket(self):
        return Ticket(ServeRequest(core=(2, 2), dims=(4, 4), id="t"))

    def test_cancel_publishes_result_immediately(self):
        ticket = self._ticket()
        assert ticket.cancel()
        assert ticket.done()
        res = ticket.result(timeout=0)
        assert not res.ok
        assert res.error_kind == "RequestCancelled"
        assert ticket.state == "cancelled"

    def test_cancel_loses_to_start(self):
        ticket = self._ticket()
        assert ticket._start()
        assert not ticket.cancel()
        assert ticket.state == "running"

    def test_start_loses_to_cancel(self):
        ticket = self._ticket()
        assert ticket.cancel()
        assert not ticket._start()

    def test_result_timeout(self):
        with pytest.raises(TimeoutError):
            self._ticket().result(timeout=0.01)

    def test_deadline_remaining(self):
        assert self._ticket().deadline_remaining() is None
        bounded = Ticket(
            ServeRequest(core=(2, 2), dims=(4, 4), deadline=60.0)
        )
        remaining = bounded.deadline_remaining()
        assert 0 < remaining <= 60.0


# --------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------- #


class TestServer:
    def test_results_match_sequential_session(self):
        shapes = [(10, 8, 6), (10, 8, 6), (7, 7, 7)]
        tensors = [_random(s, seed=i) for i, s in enumerate(shapes)]
        with TuckerSession(backend="sequential") as session:
            expected = [
                session.run(t, (3, 3, 2), max_iters=2) for t in tensors
            ]
        with TuckerServer(workers=2, backend="sequential") as server:
            tickets = [
                server.submit(ServeRequest(
                    array=t, core=(3, 3, 2), id=f"r{i}", max_iters=2
                ))
                for i, t in enumerate(tensors)
            ]
            results = [t.result(timeout=60) for t in tickets]
        for res, ref in zip(results, expected):
            assert res.ok, res.error
            np.testing.assert_allclose(
                res.value.decomposition.core,
                ref.decomposition.core,
                atol=1e-10,
            )

    @pytest.mark.parametrize("method", ["run", "sthosvd", "rsthosvd"])
    def test_server_planner_reaches_every_run(self, method):
        with TuckerServer(
            workers=1, backend="sequential", planner="chain-k"
        ) as server:
            ticket = server.submit(ServeRequest(
                dims=(10, 8, 6), core=(3, 3, 2), method=method, max_iters=1,
            ))
            res = ticket.result(timeout=60)
        assert res.ok, res.error
        assert res.value.plan.tree_kind == "chain-k"

    def test_unknown_planner_rejected_at_construction(self):
        with pytest.raises(ValueError, match="planner"):
            TuckerServer(workers=1, backend="sequential", planner="nope")

    def test_repeated_key_finds_its_plan_cached(self):
        with TuckerServer(workers=2, backend="sequential") as server:
            tickets = [
                server.submit(ServeRequest(
                    dims=(8, 8, 8), seed=i, core=(2, 2, 2),
                    id=f"r{i}", max_iters=1,
                ))
                for i in range(6)
            ]
            results = [t.result(timeout=60) for t in tickets]
            snap = server.stats_snapshot()
        assert all(r.ok for r in results)
        assert snap["affinity"]["hit_rate"] > 0
        # A worker compiles the key once; its later requests find the
        # compiled plan in its session cache.
        assert any(r.from_cache for r in results)
        caches = snap["plan_cache"].values()
        assert snap["affinity"]["hits"] == sum(c["hits"] for c in caches)
        assert snap["affinity"]["misses"] == sum(c["misses"] for c in caches)

    def test_idle_worker_takes_a_queued_request(self, monkeypatch):
        # Hold one worker inside a run of key K, then submit a second K
        # request: the other worker must serve it while the first is
        # still held, not queue it behind the busy one.
        entered, release = threading.Event(), threading.Event()
        calls = []
        real_run = TuckerSession.run

        def run(session, *args, **kwargs):
            calls.append(session)
            if len(calls) == 1:
                entered.set()
                release.wait(60)
            return real_run(session, *args, **kwargs)

        monkeypatch.setattr(TuckerSession, "run", run)
        key = dict(dims=(8, 8, 8), core=(2, 2, 2), max_iters=1)
        server = TuckerServer(workers=2, backend="sequential")
        try:
            held = server.submit(ServeRequest(id="held", **key))
            assert entered.wait(60)
            second = server.submit(ServeRequest(id="second", seed=1, **key))
            res = second.result(timeout=30)
            assert res.ok, res.error
            assert not held.done()
            release.set()
            first = held.result(timeout=60)
            assert first.ok and first.worker != res.worker
        finally:
            release.set()
            server.close()

    def test_path_header_read_and_mapped_once(self, tmp_path, monkeypatch):
        paths = []
        for i in range(2):
            paths.append(str(tmp_path / f"x{i}.npy"))
            np.save(paths[-1], _random((12, 10, 8), seed=i))
        loads = collections.Counter()
        headers = collections.Counter()
        real_load, real_header = np.load, request_mod._read_header

        def load(file, *args, **kwargs):
            loads[os.fspath(file)] += 1
            return real_load(file, *args, **kwargs)

        def read_header(path):
            headers[path] += 1
            return real_header(path)

        monkeypatch.setattr(np, "load", load)
        monkeypatch.setattr(request_mod, "_read_header", read_header)
        budget = 1 << 20
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
        )
        try:
            # The held budget keeps the first request in admission until
            # the second is queued, so the first run reads it ahead.
            hold = server.admission.acquire(budget)
            tickets = [
                server.submit(ServeRequest(
                    core=(3, 3, 3), path=path, id=f"r{i}", max_iters=1,
                ))
                for i, path in enumerate(paths)
            ]
            server.admission.release(hold)
            assert all(t.result(timeout=60).ok for t in tickets)
            assert server.stats_snapshot()["prefetch_bytes"] == 12 * 10 * 8 * 8
        finally:
            server.close()
        assert loads == {path: 1 for path in paths}
        assert headers == {path: 1 for path in paths}

    @staticmethod
    def _queued_behind_a_held_run(monkeypatch, path, change):
        """Serve ``path`` on the only worker while it is held inside
        another run, ``change`` the file, then release the worker."""
        entered, release = threading.Event(), threading.Event()
        real_run = TuckerSession.run

        def run(session, tensor, *args, **kwargs):
            if not entered.is_set():
                entered.set()
                release.wait(60)
            return real_run(session, tensor, *args, **kwargs)

        monkeypatch.setattr(TuckerSession, "run", run)
        server = TuckerServer(workers=1, backend="sequential")
        try:
            held = server.submit(ServeRequest(
                dims=(8, 8, 8), core=(2, 2, 2), id="held", max_iters=1,
            ))
            assert entered.wait(60)
            ticket = server.submit(ServeRequest(
                core=(2, 2, 2), path=path, id="swapped", max_iters=1,
            ))
            change(path)
            release.set()
            assert held.result(timeout=60).ok
            return ticket.result(timeout=60)
        finally:
            release.set()
            server.close()

    def test_path_replaced_while_queued_fails_typed(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "x.npy")
        np.save(path, _random((8, 8, 8)))
        res = self._queued_behind_a_held_run(
            monkeypatch, path, lambda p: np.save(p, _random((8, 8, 6)))
        )
        assert not res.ok
        assert res.error_kind == "ValueError"
        assert "changed after it was queued" in res.error

    def test_path_truncated_while_queued_fails_typed(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "x.npy")
        np.save(path, _random((8, 8, 8)))
        res = self._queued_behind_a_held_run(
            monkeypatch, path, lambda p: open(p, "wb").close()
        )
        assert not res.ok
        assert res.error_kind == "ValueError"
        assert path in res.error

    def test_bad_core_rejected_at_submission(self, tmp_path):
        path = str(tmp_path / "x.npy")
        np.save(path, np.zeros((4, 4, 4)))
        with TuckerServer(workers=1, backend="sequential") as server:
            for source in ({"dims": (4, 4, 4)}, {"path": path}):
                with pytest.raises(ValueError):
                    server.submit(ServeRequest(core=(9, 9, 9), **source))
            assert server.pending == 0
            assert server.stats_snapshot()["submitted"] == 0.0

    def test_dict_submission_and_stats(self):
        with TuckerServer(workers=1, backend="sequential") as server:
            ticket = server.submit({
                "core": [2, 2, 2],
                "random": {"dims": [6, 6, 6], "seed": 1},
                "id": "via-dict",
            })
            res = ticket.result(timeout=60)
            snap = server.stats_snapshot()
        assert res.ok
        assert res.id == "via-dict"
        assert snap["submitted"] == 1.0
        assert snap["completed"] == 1.0
        assert snap["items_per_second"] >= 0.0
        assert snap["latency_p99"] >= snap["latency_p50"] >= 0.0

    def test_queue_full_sheds_with_typed_error(self):
        budget = 8 * 8 * 8 * 8  # exactly one (8,8,8) float64 request
        server = TuckerServer(
            workers=1, backend="sequential",
            memory_budget=budget, max_queue=2,
        )
        try:
            # Pin the whole budget so the worker blocks in admission and
            # the queue backs up deterministically.
            hold = server.admission.acquire(budget)
            req = {"core": [2, 2, 2], "random": {"dims": [8, 8, 8]}}
            t1 = server.submit(dict(req, id="a"))
            t2 = server.submit(dict(req, id="b"))
            with pytest.raises(AdmissionError) as exc:
                server.submit(dict(req, id="overflow"))
            assert exc.value.reason == "queue_full"
            server.admission.release(hold)
            assert t1.result(timeout=60).ok
            assert t2.result(timeout=60).ok
            snap = server.stats_snapshot()
            assert snap["shed"] == 1.0
        finally:
            server.close()

    def test_draining_sheds_new_submissions(self):
        server = TuckerServer(workers=1, backend="sequential")
        drained = server.drain()
        assert drained
        with pytest.raises(AdmissionError) as exc:
            server.submit({
                "core": [2, 2], "random": {"dims": [4, 4]},
            })
        assert exc.value.reason == "draining"
        assert server.stats_snapshot()["shed"] == 1.0

    def test_deadline_missed_while_queued(self):
        budget = 8 * 8 * 8 * 8
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
        )
        try:
            hold = server.admission.acquire(budget)
            req = {"core": [2, 2, 2], "random": {"dims": [8, 8, 8]}}
            # The first request spends its whole deadline blocked on the
            # pinned budget; by the time the worker reaches the second,
            # its (shorter) deadline is long gone -> the queued path.
            first = server.submit(dict(req, id="first", deadline=0.3))
            doomed = server.submit(dict(req, id="doomed", deadline=0.05))
            res1 = first.result(timeout=60)
            res2 = doomed.result(timeout=60)
            server.admission.release(hold)
            assert not res1.ok
            assert res1.error_kind == "DeadlineExceeded"
            assert not res2.ok
            assert res2.error_kind == "DeadlineExceeded"
            assert "queued" in res2.error
            snap = server.stats_snapshot()
            assert snap["deadline_missed"] == 2.0
            assert snap["failed"] == 2.0
        finally:
            server.close()

    def test_default_deadline_applies_to_bare_requests(self):
        server = TuckerServer(
            workers=1, backend="sequential", deadline=123.0,
        )
        try:
            ticket = server.submit({
                "core": [2, 2], "random": {"dims": [4, 4]},
            })
            assert ticket.request.deadline == 123.0
            explicit = server.submit({
                "core": [2, 2], "random": {"dims": [4, 4]},
                "deadline": 5.0,
            })
            assert explicit.request.deadline == 5.0
        finally:
            server.close()
        with pytest.raises(ValueError):
            TuckerServer(workers=1, deadline=-1.0)

    def test_cancel_queued_request(self):
        budget = 8 * 8 * 8 * 8
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
        )
        try:
            hold = server.admission.acquire(budget)
            req = {"core": [2, 2, 2], "random": {"dims": [8, 8, 8]}}
            running = server.submit(dict(req, id="runs"))
            queued = server.submit(dict(req, id="cancelled"))
            assert queued.cancel()
            res = queued.result(timeout=1)
            assert not res.ok
            assert res.error_kind == "RequestCancelled"
            server.admission.release(hold)
            assert running.result(timeout=60).ok
            # drain() below flushes the dead ticket through the worker,
            # which records the cancellation.
            server.close()
            assert server.stats_snapshot()["cancelled"] == 1.0
        finally:
            server.close()

    def test_missing_path_rejected_at_submission(self):
        with TuckerServer(workers=1, backend="sequential") as server:
            with pytest.raises(FileNotFoundError):
                server.submit(ServeRequest(
                    core=(2, 2, 2), path="/nonexistent/input.npy", id="bad",
                ))

    def test_execution_failure_does_not_kill_worker(self, tmp_path):
        path = tmp_path / "vanishes.npy"
        np.save(path, _random((6, 6, 6)))
        budget = 6 * 6 * 6 * 8
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
        )
        try:
            # Valid at submission; gone by the time the worker reaches
            # it. The first request holds the worker at the pinned
            # budget so the path request is still queued when unlinked.
            hold = server.admission.acquire(budget)
            blocker = server.submit(ServeRequest(
                core=(2, 2, 2), dims=(6, 6, 6), id="blocker",
            ))
            bad = server.submit(ServeRequest(
                core=(2, 2, 2), path=str(path), id="bad",
            ))
            path.unlink()
            server.admission.release(hold)
            assert blocker.result(timeout=60).ok
            res = bad.result(timeout=60)
            assert not res.ok
            assert res.error_kind == "FileNotFoundError"
            # The worker survives and serves the next request.
            good = server.submit({
                "core": [2, 2], "random": {"dims": [5, 5]}, "id": "good",
            })
            assert good.result(timeout=60).ok
            assert server.stats_snapshot()["failed"] == 1.0
        finally:
            server.close()

    def test_live_stats_count_read_ahead(self, tmp_path):
        paths = []
        for i in range(3):
            paths.append(str(tmp_path / f"x{i}.npy"))
            np.save(paths[-1], _random((40, 36, 32), seed=i))
        nbytes = 40 * 36 * 32 * 8
        budget = 1 << 22
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
        )
        try:
            # With the whole budget held, the first request waits in
            # admission while the other two queue behind it; each run
            # then advises the request queued next.
            hold = server.admission.acquire(budget)
            tickets = [
                server.submit(ServeRequest(
                    core=(4, 4, 4), path=path, id=f"r{i}", max_iters=1,
                ))
                for i, path in enumerate(paths)
            ]
            server.admission.release(hold)
            assert all(t.result(timeout=60).ok for t in tickets)
            # requests 2 and 3, counted while the server still runs
            assert server.stats_snapshot()["prefetch_bytes"] == 2 * nbytes
        finally:
            server.close()

    def test_save_writes_npz(self, tmp_path):
        out = str(tmp_path / "result.npz")
        with TuckerServer(workers=1, backend="sequential") as server:
            ticket = server.submit(ServeRequest(
                dims=(6, 5, 4), core=(2, 2, 2), id="s",
                max_iters=1, save=out,
            ))
            res = ticket.result(timeout=60)
        assert res.ok and res.saved == out
        with np.load(out) as payload:
            dec = res.value.decomposition
            np.testing.assert_array_equal(payload["core"], dec.core)
            for m, factor in enumerate(dec.factors):
                np.testing.assert_array_equal(
                    payload[f"factor{m}"], factor
                )

    def test_drain_is_clean_and_idempotent(self):
        server = TuckerServer(workers=2, backend="sequential")
        tickets = [
            server.submit({
                "core": [2, 2, 2], "random": {"dims": [7, 6, 5], "seed": i},
                "id": f"r{i}",
            })
            for i in range(4)
        ]
        assert server.drain(timeout=60)
        assert all(t.result(timeout=0).ok for t in tickets)
        assert all(not w.thread.is_alive() for w in server.workers)
        assert server.pending == 0
        assert server.drain(timeout=60)  # idempotent
        snap = server.stats_snapshot()
        assert snap["draining"] is True
        assert snap["completed"] == 4.0

    def test_oversized_request_runs_spilled_not_shed(self):
        # 4KB budget << the 8000-byte 10x10x10 float64 input: admission
        # charges min(nbytes, budget) and the session runs it out of core.
        with TuckerServer(
            workers=1, backend="sequential", memory_budget=4096,
        ) as server:
            ticket = server.submit({
                "core": [2, 2, 2], "random": {"dims": [10, 10, 10]},
                "id": "big",
            })
            res = ticket.result(timeout=60)
        assert res.ok, res.error
        assert res.storage == "mmap"

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            TuckerServer(workers=0)
        with pytest.raises(ValueError):
            TuckerServer(workers=1, max_queue=0)


class TestSoak:
    def test_mixed_stream_leaves_nothing_behind(self, tmp_path):
        """300 requests of two keys, arrays and ``.npy`` paths, through
        two workers under a budget one key's input overflows (it runs
        spilled): all succeed, and the drain returns every request, byte
        of budget, thread and spill file."""
        keys = [((10, 9, 8), (3, 3, 2)), ((7, 6, 5), (2, 2, 2))]
        paths = {}
        for dims, _ in keys:
            paths[dims] = str(tmp_path / f"{len(paths)}.npy")
            np.save(paths[dims], _random(dims, seed=len(paths)))
        spill_dir = tmp_path / "spill"
        threads_before = threading.active_count()
        server = TuckerServer(
            workers=2, backend="sequential", memory_budget=4096,
            max_queue=300, spill_dir=str(spill_dir),
        )
        tickets = []
        for i in range(300):
            dims, core = keys[i % 2]
            source = (
                {"path": paths[dims]} if i % 3 == 0
                else {"array": _random(dims, seed=i)}
            )
            tickets.append(server.submit(ServeRequest(
                core=core, id=f"r{i}", max_iters=1, **source,
            )))
        assert server.drain(timeout=120)
        results = [t.result(timeout=0) for t in tickets]
        assert all(r.ok for r in results), [r.error for r in results]
        assert {r.storage for r in results} == {"mmap", "memory"}
        snap = server.stats_snapshot()
        assert snap["completed"] == 300.0
        assert server.pending == 0
        assert server.admission.gauge.current == 0
        assert snap["admission"]["charged"] == 0
        assert threading.active_count() == threads_before
        assert not spill_dir.exists() or not any(spill_dir.iterdir())

    def test_more_workers_than_cores_lose_no_request(self):
        # Three submitters and four workers share the one queue and the
        # pending count, with the interpreter switching threads often.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        server = TuckerServer(workers=4, backend="sequential", max_queue=200)
        tickets: list = []
        try:
            def submit(first: int) -> None:
                for i in range(first, 150, 3):
                    tickets.append(server.submit({
                        "core": [2, 2], "random": {"dims": [5, 4], "seed": i},
                        "id": f"r{i}",
                    }))

            submitters = [
                threading.Thread(target=submit, args=(k,)) for k in range(3)
            ]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(60)
                assert not thread.is_alive()
            assert server.drain(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        results = [t.result(timeout=0) for t in tickets]
        assert all(r.ok for r in results)
        assert sorted(r.id for r in results) == sorted(
            f"r{i}" for i in range(150)
        )
        assert server.pending == 0
        assert server.stats_snapshot()["completed"] == 150.0


# --------------------------------------------------------------------- #
# the ndjson protocol
# --------------------------------------------------------------------- #


def _run_protocol(lines, **server_kw):
    """Feed ``lines`` (dicts/strings) through serve_lines; return outputs."""
    server_kw.setdefault("workers", 2)
    server_kw.setdefault("backend", "sequential")
    inputs = [
        line if isinstance(line, str) else json.dumps(line)
        for line in lines
    ]
    it = iter(inputs)
    out: list[str] = []
    server = TuckerServer(**server_kw)
    stats = serve_lines(server, lambda: next(it, ""), out.append)
    return [json.loads(line) for line in out], stats


class TestProtocol:
    def test_responses_in_submission_order(self):
        reqs = [
            {"core": [2, 2, 2], "random": {"dims": [8, 7, 6], "seed": i},
             "id": f"r{i}"}
            for i in range(5)
        ]
        responses, stats = _run_protocol(reqs)
        body, final = responses[:-1], responses[-1]
        assert [r["id"] for r in body] == [f"r{i}" for i in range(5)]
        assert all(r["ok"] for r in body)
        assert final["op"] == "drain" and final["ok"]
        assert stats["completed"] == 5.0

    def test_instant_rejection_does_not_overtake(self):
        # A malformed line right after a real request must still answer
        # *after* it — FIFO framing is the protocol's contract.
        reqs = [
            {"core": [2, 2, 2], "random": {"dims": [8, 7, 6]}, "id": "work"},
            {"core": [2, 2], "mystery_field": 1, "id": "broken"},
        ]
        responses, _ = _run_protocol(reqs)
        assert responses[0]["id"] == "work" and responses[0]["ok"]
        assert responses[1]["ok"] is False
        assert responses[1]["error_kind"] == "ValueError"

    def test_shed_request_answered_in_order(self):
        # The first request waits on the held budget, so the second meets
        # a full queue; its instant rejection still answers second.
        budget = 8 * 8 * 8 * 8
        server = TuckerServer(
            workers=1, backend="sequential", memory_budget=budget,
            max_queue=1,
        )
        hold = server.admission.acquire(budget)
        req = {"core": [2, 2, 2], "random": {"dims": [8, 8, 8]}}
        lines = iter([json.dumps(dict(req, id=i)) for i in ("a", "b")])

        def read_line():
            line = next(lines, "")
            if not line:
                server.admission.release(hold)
            return line

        out: list[str] = []
        stats = serve_lines(server, read_line, out.append)
        first, shed, final = (json.loads(line) for line in out)
        assert first["id"] == "a" and first["ok"]
        assert shed["id"] == "b" and shed["shed"]
        assert shed["reason"] == "queue_full"
        assert final["op"] == "drain" and stats["shed"] == 1.0

    def test_stats_and_drain_ops(self):
        responses, _ = _run_protocol([
            {"op": "stats"},
            {"op": "drain"},
            {"core": [2, 2], "random": {"dims": [4, 4]}, "id": "late"},
        ])
        assert responses[0]["op"] == "stats"
        assert responses[1]["op"] == "drain"
        # Nothing after the drain line: the late request was never read.
        assert len(responses) == 2

    def test_bad_json_line_answered_not_fatal(self):
        responses, stats = _run_protocol([
            "{not json",
            {"core": [2, 2], "random": {"dims": [4, 4]}, "id": "fine"},
        ])
        assert responses[0]["ok"] is False
        assert responses[0]["error_kind"] == "JSONDecodeError"
        assert responses[1]["id"] == "fine" and responses[1]["ok"]
        assert stats["completed"] == 1.0

    def test_eof_means_drain(self):
        responses, stats = _run_protocol([
            {"core": [2, 2], "random": {"dims": [4, 4]}, "id": "only"},
        ])
        assert responses[-1]["op"] == "drain" and responses[-1]["ok"]
        assert stats["completed"] == 1.0

    def test_blank_lines_skipped(self):
        # Whitespace-only lines (an empty string is EOF) are ignored.
        responses, _ = _run_protocol([
            " ", "   ",
            {"core": [2, 2], "random": {"dims": [4, 4]}, "id": "x"},
        ])
        assert responses[0]["id"] == "x"


# --------------------------------------------------------------------- #
# server stats
# --------------------------------------------------------------------- #


class TestServerStats:
    def test_empty_snapshot_is_all_zero(self):
        snap = ServerStats().snapshot()
        assert snap["submitted"] == 0.0
        assert snap["completed"] == 0.0
        assert snap["items_per_second"] == 0.0
        assert snap["latency_p50"] == 0.0

    def test_percentiles_ordered(self):
        stats = ServerStats()
        for ms in range(1, 101):
            stats.completed(seconds=ms / 1000.0, wall_seconds=ms / 1000.0)
        snap = stats.snapshot()
        assert snap["completed"] == 100.0
        assert (
            0 < snap["latency_p50"] <= snap["latency_p90"]
            <= snap["latency_p99"]
        )

    def test_shed_and_failed_reasons_counted(self):
        stats = ServerStats()
        stats.shed("queue_full")
        stats.shed("draining")
        stats.failed("DeadlineExceeded")
        counters = stats.registry.snapshot()["counters"]
        assert counters["serve_shed"] == 2.0
        assert counters["serve_shed:queue_full"] == 1.0
        assert counters["serve_failed:DeadlineExceeded"] == 1.0
