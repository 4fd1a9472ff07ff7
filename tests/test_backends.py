"""Tests for the execution-backend subsystem.

The headline property: all three backends run the *same compiled schedule*
and must produce identical factors/errors to 1e-10 on random 3-D and 4-D
tensors — sequential numpy is the reference, the virtual cluster and the
thread pool must agree with it.
"""

from contextlib import closing

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SequentialBackend,
    SimClusterBackend,
    ThreadedBackend,
    get_backend,
)
from repro.backends.blockkernels import GRAM_SCRATCH_SLOTS
from repro.mpi.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor, random_tensor


def make_backend(name: str, n_procs: int) -> ExecutionBackend:
    if name == "simcluster":
        return SimClusterBackend(n_procs=n_procs)
    if name == "threaded":
        return ThreadedBackend(n_workers=3)
    return SequentialBackend()


CASES = [
    ((12, 10, 8), (4, 3, 3), 4, 0),
    ((14, 9, 11), (5, 3, 4), 4, 1),
    ((9, 8, 7, 6), (3, 3, 2, 2), 8, 2),
    ((10, 12, 6, 8), (4, 5, 2, 3), 8, 3),
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("dims,core,procs,seed", CASES)
    def test_run_identical_across_backends(self, dims, core, procs, seed):
        t = low_rank_tensor(dims, core, noise=0.1, seed=seed)
        results = {}
        for name in BACKEND_NAMES:
            session = TuckerSession(backend=make_backend(name, procs))
            results[name] = session.run(
                t, core, planner="optimal", n_procs=procs, max_iters=3, tol=0.0
            )
        ref = results["sequential"]
        for name in ("simcluster", "threaded"):
            res = results[name]
            np.testing.assert_allclose(
                res.errors, ref.errors, atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                res.decomposition.core,
                ref.decomposition.core,
                atol=1e-10,
                err_msg=name,
            )
            for a, b in zip(
                res.decomposition.factors, ref.decomposition.factors
            ):
                np.testing.assert_allclose(a, b, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_sthosvd_matches_sequential_reference(self, name):
        from repro.hooi.sthosvd import sthosvd

        dims, core, procs = (12, 10, 8), (4, 3, 3), 4
        t = low_rank_tensor(dims, core, noise=0.1, seed=5)
        session = TuckerSession(backend=make_backend(name, procs))
        res = session.sthosvd(t, core, planner="optimal", n_procs=procs)
        ref = sthosvd(t, core, mode_order="optimal")
        np.testing.assert_allclose(
            res.decomposition.core, ref.core, atol=1e-10
        )
        for a, b in zip(res.decomposition.factors, ref.factors):
            np.testing.assert_allclose(a, b, atol=1e-10)
        assert res.sthosvd_error == pytest.approx(ref.error_vs(t), abs=1e-10)

    def test_threaded_is_deterministic(self):
        dims, core = (13, 11, 9), (4, 3, 3)
        t = low_rank_tensor(dims, core, noise=0.2, seed=7)
        runs = []
        for _ in range(2):
            session = TuckerSession(backend=ThreadedBackend(n_workers=4))
            runs.append(
                session.run(t, core, planner="optimal", n_procs=4, max_iters=2)
            )
        assert runs[0].errors == runs[1].errors
        for a, b in zip(
            runs[0].decomposition.factors, runs[1].decomposition.factors
        ):
            np.testing.assert_array_equal(a, b)


class TestLedger:
    def test_sequential_ledger_counts_flops_no_volume(self):
        backend = SequentialBackend()
        session = TuckerSession(backend=backend)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session.run(t, (3, 3, 2), planner="optimal", n_procs=2, max_iters=1)
        stats = backend.stats()
        assert stats["flops"] > 0
        assert stats["comm_volume"] == 0
        assert stats["events"] > 0

    def test_simcluster_ledger_shares_cluster_stats(self):
        cluster = SimCluster(4)
        backend = SimClusterBackend(cluster)
        session = TuckerSession(backend=backend)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session.run(t, (3, 3, 2), planner="optimal", max_iters=1)
        assert backend.ledger is cluster.stats
        assert backend.stats()["comm_volume"] == cluster.stats.volume() > 0

    def test_threaded_ledger_and_reset(self):
        backend = ThreadedBackend(n_workers=2)
        session = TuckerSession(backend=backend)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        session.run(t, (3, 3, 2), planner="optimal", n_procs=2, max_iters=1)
        assert backend.stats()["flops"] > 0
        backend.reset_stats()
        assert backend.stats()["events"] == 0
        backend.close()


class TestRegistry:
    def test_instance_passthrough(self):
        backend = SequentialBackend()
        assert get_backend(backend) is backend

    def test_names_resolve(self):
        assert get_backend("sequential").name == "sequential"
        assert get_backend("threaded", n_procs=2).name == "threaded"
        assert get_backend("simcluster", n_procs=4).name == "simcluster"
        assert get_backend("procpool", n_procs=2).name == "procpool"

    def test_auto_is_session_level(self):
        with pytest.raises(ValueError, match="TuckerSession"):
            get_backend("auto")

    def test_simcluster_needs_procs(self):
        with pytest.raises(ValueError, match="cluster"):
            get_backend("simcluster")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("mpi4py")

    def test_cluster_size_mismatch_rejected(self):
        session = TuckerSession(backend="simcluster", n_procs=4)
        t = low_rank_tensor((10, 9, 8), (3, 3, 2), noise=0.1, seed=0)
        with pytest.raises(ValueError, match="ranks"):
            session.run(t, (3, 3, 2), planner="optimal", n_procs=8)


class TestGramScratch:
    """The ``L x L`` Gram accumulator belongs to the backend instance."""

    @pytest.mark.parametrize("name", ["sequential", "threaded", "procpool"])
    def test_reused_across_calls_and_freed_on_close(self, name):
        x = random_tensor((10, 8, 6), seed=0)
        y = random_tensor((10, 7, 5), seed=1)
        with closing(get_backend(name, n_procs=2)) as backend:
            hx, hy = backend.distribute(x, ()), backend.distribute(y, ())
            first = backend.leading_factor(hx, 0, 3)
            (scratch,) = backend._gram_scratch.values()
            assert scratch.shape == (10, 10) and scratch.dtype == x.dtype
            # another tensor through the same scratch, then the first again
            other = backend.leading_factor(hy, 0, 3)
            again = backend.leading_factor(hx, 0, 3)
            assert len(backend._gram_scratch) == 1
            assert next(iter(backend._gram_scratch.values())) is scratch
            np.testing.assert_array_equal(again, first)
            assert not np.allclose(other, first)
            # one scratch per (length, dtype)
            backend.leading_factor(hx, 1, 3)
            backend.leading_factor(
                backend.distribute(x.astype(np.float32), ()), 0, 3
            )
            assert sorted(
                (length, dtype.name) for length, dtype in backend._gram_scratch
            ) == [(8, "float64"), (10, "float32"), (10, "float64")]
            backend.close()
            assert not backend._gram_scratch
            # closing leaves the backend usable
            np.testing.assert_array_equal(
                backend.leading_factor(hx, 0, 3), first
            )

    def test_scratch_is_bounded(self):
        backend = SequentialBackend()
        for length in range(2, GRAM_SCRATCH_SLOTS + 12):
            backend.leading_factor(np.ones((length, 2)), 0, 1)
            assert len(backend._gram_scratch) <= GRAM_SCRATCH_SLOTS
        assert (length, np.dtype(np.float64)) in backend._gram_scratch
