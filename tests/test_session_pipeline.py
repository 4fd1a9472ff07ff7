"""The one run pipeline behind ``run`` / ``sthosvd`` / ``hooi``.

The three entry points share one envelope and one ``_run_impl``; these
tests pin what that sharing promises: the entries agree bit for bit where
they overlap, a failing kernel leaves nothing behind whichever entry was
running, and an auto session decides storage (and prices the method it is
about to run) exactly once per run.
"""

import os
import threading

import numpy as np
import pytest

import repro.session as session_mod
from repro.hooi.sthosvd import sthosvd
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor

BACKENDS = ["sequential", "threaded", "procpool", "simcluster"]
ENTRIES = ["run", "sthosvd", "hooi"]
CORE = (4, 3, 3)
#: explicit planner + procs: ``hooi`` and ``run`` default to different
#: planners, and every backend must compile the same plan.
PLAN = {"planner": "optimal", "n_procs": 4}


@pytest.fixture(scope="module")
def tensor():
    return low_rank_tensor((14, 12, 10), CORE, noise=0.08, seed=0)


def make_session(backend, **kw):
    return TuckerSession(backend=backend, n_procs=4, **kw)


def call(session, entry, tensor, **kw):
    """Invoke one entry point with a common knob set."""
    if entry == "run":
        return session.run(tensor, CORE, max_iters=2, tol=0.0, **PLAN, **kw)
    if entry == "sthosvd":
        return session.sthosvd(tensor, CORE, **PLAN, **kw)
    init = sthosvd(tensor, CORE)
    return session.hooi(tensor, init, max_iters=2, tol=0.0, **PLAN, **kw)


def assert_same_decomposition(a, b):
    np.testing.assert_array_equal(a.core, b.core)
    for fa, fb in zip(a.factors, b.factors):
        np.testing.assert_array_equal(fa, fb)


class TestEntryPointsAgree:
    @pytest.mark.parametrize("backend", BACKENDS[:3])
    def test_sthosvd_is_run_without_hooi(self, tensor, backend):
        with make_session(backend) as session:
            one = session.sthosvd(tensor, CORE, **PLAN)
            two = session.run(tensor, CORE, skip_hooi=True, **PLAN)
        assert one.sthosvd_error == two.sthosvd_error
        assert one.errors == two.errors == []
        assert_same_decomposition(one.decomposition, two.decomposition)
        assert [r.tag for r in one.ledger.records] == [
            r.tag for r in two.ledger.records
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hooi_from_run_init_reproduces_run(self, tensor, backend):
        with make_session(backend) as session:
            init = session.run(tensor, CORE, skip_hooi=True, **PLAN)
            full = session.run(tensor, CORE, max_iters=3, tol=0.0, **PLAN)
            again = session.hooi(
                tensor, init.decomposition, max_iters=3, tol=0.0, **PLAN
            )
        assert len(full.errors) == 3
        assert again.errors == full.errors
        assert full.sthosvd_error == init.sthosvd_error
        assert np.isnan(again.sthosvd_error)
        assert_same_decomposition(again.decomposition, full.decomposition)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_root_span_names_the_entry(self, tensor, entry):
        session = TuckerSession(trace=True)
        res = call(session, entry, tensor)
        (root,) = res.trace.roots()
        assert root.name == "run" and root.attrs["method"] == entry
        assert res.seconds == root.seconds
        assert res.method == "exact" and res.backend == "sequential"
        assert res.storage == "memory" and not res.auto_selected


class TestFailureLeavesNothingBehind:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_kernel_raises_mid_run(self, tensor, tmp_path, entry, backend):
        spill = tmp_path / "spill"
        spill.mkdir()
        with make_session(
            backend, trace=True, storage="mmap", spill_dir=str(spill)
        ) as session:
            ledger = session.backend.ledger
            observer = ledger.observer
            real_ttm = session.backend.ttm
            calls = []

            def failing_ttm(*args, **kw):
                calls.append(1)
                if len(calls) > 1:
                    raise RuntimeError("kernel boom")
                return real_ttm(*args, **kw)

            session.backend.ttm = failing_ttm
            try:
                with pytest.raises(RuntimeError, match="kernel boom"):
                    call(session, entry, tensor)
            finally:
                del session.backend.ttm
            # crash forensics: the partial spans, labelled with the entry
            trace = session.last_error_trace
            assert trace is not None and trace.meta["method"] == entry
            assert trace.find("compile")
            # the ledger observer and backend tracer were restored
            assert ledger.observer is observer
            assert session.backend.tracer is not session.tracer
            # the run lock is free: another thread can take it
            took = []

            def take_lock():
                took.append(session._run_lock.acquire(timeout=5))
                if took[0]:
                    session._run_lock.release()

            worker = threading.Thread(target=take_lock)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive() and took == [True]
            # the run-private spill directory is gone
            assert os.listdir(spill) == []
            # and the session is still usable
            res = call(session, entry, tensor)
            assert res.storage == "mmap" and res.trace is not None
        assert os.listdir(spill) == []


class TestAutoSelectsOncePerRun:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = session_mod.select_storage

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(session_mod, "select_storage", counting)
        return calls

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_one_storage_decision_per_run(self, tensor, counted, entry):
        with TuckerSession(backend="auto", n_procs=2, trace=True) as session:
            res = call(session, entry, tensor)
            assert len(counted) == 1
            assert counted[0][0] == tensor.nbytes
            events = [
                e.name for span in res.trace.spans for e in span.events
            ]
            assert events.count("select:storage") == 1
            assert events.count("select:backend") == 1
            assert res.auto_selected and res.selection_reason
            call(session, entry, tensor)
            assert len(counted) == 2

    def test_randomized_run_is_priced_as_randomized(self, tensor):
        with TuckerSession(backend="auto", n_procs=2) as session:
            session.run(
                tensor, CORE, method="rsthosvd", skip_hooi=True, **PLAN
            )
            assert "method=rsthosvd" in session.last_selection.reason
            session.run(tensor, CORE, skip_hooi=True, **PLAN)
            assert "method=" not in session.last_selection.reason
            session.sthosvd(tensor, CORE, **PLAN)
            assert "method=" not in session.last_selection.reason
