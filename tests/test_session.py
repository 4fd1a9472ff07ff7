"""Tests for the session API: CompiledPlan, the plan cache, run results."""

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.hooi.sthosvd import sthosvd
from repro.dist.comm import SimCluster
from repro.session import CompiledPlan, TuckerSession, compile_plan
from repro.tensor.random import low_rank_tensor


@pytest.fixture
def tensor():
    return low_rank_tensor((14, 12, 10), (4, 3, 3), noise=0.08, seed=0)


class TestCompile:
    def test_compile_produces_schedule(self):
        meta = TensorMeta(dims=(12, 10, 8), core=(4, 3, 3))
        session = TuckerSession()
        cp = session.compile(meta, n_procs=4, planner="optimal")
        assert isinstance(cp, CompiledPlan)
        assert cp.n_procs == 4
        assert cp.meta == meta
        # one svd step per mode, at least one ttm step per mode chain
        svd_modes = sorted(s.mode for s in cp.tree_steps if s.op == "svd")
        assert svd_modes == [0, 1, 2]
        assert sum(1 for s in cp.core_steps if s.op == "ttm") == 3

    def test_gram_scratch_reused_across_runs_and_freed_on_close(self, tensor):
        # the L x L Gram buffers live on the backend, not on the plan: one
        # per mode length, the same arrays run after run, gone on close()
        session = TuckerSession()
        session.run(tensor, (4, 3, 3), max_iters=1)
        scratch = dict(session.backend._gram_scratch)
        assert sorted(scratch) == [
            (length, np.dtype(np.float64)) for length in (10, 12, 14)
        ]
        session.run(tensor + 0.5, (4, 3, 3), max_iters=2)
        assert session.backend._gram_scratch.keys() == scratch.keys()
        for key, buffer in scratch.items():
            assert session.backend._gram_scratch[key] is buffer
        session.close()
        assert not session.backend._gram_scratch

    def test_compile_plan_without_a_dtype_is_float64(self):
        meta = TensorMeta(dims=(12, 10, 8), core=(4, 3, 3))
        plan = Planner(4, tree="optimal", grid="dynamic").plan(meta)
        assert compile_plan(plan, dtype=None).dtype == np.dtype(np.float64)

    def test_portfolio_is_default_planner(self, tensor):
        session = TuckerSession()
        res = session.run(tensor, (4, 3, 3), n_procs=4, max_iters=2)
        assert res.plan.tree_kind in (
            "optimal", "balanced", "chain-k", "chain-h"
        )


class TestPlanCache:
    def test_repeated_run_hits_cache(self, tensor):
        session = TuckerSession()
        r1 = session.run(tensor, (4, 3, 3), n_procs=4, max_iters=1)
        assert r1.from_cache is False
        r2 = session.run(tensor + 0.5, (4, 3, 3), n_procs=4, max_iters=1)
        assert r2.from_cache is True
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1
        assert r1.plan is r2.plan  # the very same compiled Plan object

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_procs": 8},
            {"planner": "optimal"},
            {"dtype": np.float32},
        ],
    )
    def test_key_components_cause_misses(self, tensor, kwargs):
        session = TuckerSession()
        session.run(tensor, (4, 3, 3), n_procs=4, max_iters=1)
        session.run(tensor, (4, 3, 3), max_iters=1, **{"n_procs": 4, **kwargs})
        info = session.cache_info()
        assert info["misses"] == 2 and info["hits"] == 0

    def test_different_core_misses(self, tensor):
        session = TuckerSession()
        session.run(tensor, (4, 3, 3), n_procs=4, max_iters=1)
        session.run(tensor, (3, 3, 3), n_procs=4, max_iters=1)
        assert session.cache_info()["misses"] == 2

    def test_lru_eviction(self):
        session = TuckerSession(cache_size=2)
        metas = [
            TensorMeta(dims=(10, 8, 6), core=(k, 2, 2)) for k in (2, 3, 4)
        ]
        for m in metas:
            session.compile(m, n_procs=2, planner="optimal")
        assert session.cache_info()["size"] == 2
        # the first meta was evicted: compiling it again is a miss
        session.compile(metas[0], n_procs=2, planner="optimal")
        assert session.cache_info()["misses"] == 4

    def test_clear_cache(self, tensor):
        session = TuckerSession()
        session.run(tensor, (4, 3, 3), n_procs=4, max_iters=1)
        session.clear_cache()
        assert session.cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "maxsize": 32
        }


class TestRunResult:
    def test_result_fields(self, tensor):
        session = TuckerSession(backend="threaded", n_procs=2)
        res = session.run(
            tensor, (4, 3, 3), n_procs=4, planner="optimal", max_iters=3, tol=0.0
        )
        assert res.backend == "threaded"
        assert res.n_iters == len(res.errors) == 3
        assert res.error <= res.sthosvd_error + 1e-12

    def test_explicit_plan_argument(self, tensor):
        meta = TensorMeta(dims=tensor.shape, core=(4, 3, 3))
        plan = Planner(4, tree="optimal", grid="dynamic").plan(meta)
        session = TuckerSession()
        res = session.run(tensor, plan=plan, max_iters=2)
        assert res.plan.tree_kind == "optimal"
        res2 = session.run(tensor, plan=session.compile(meta, 4, planner="optimal"), max_iters=2)
        assert res2.errors == pytest.approx(res.errors)

    def test_explicit_plan_is_cached_by_identity(self, tensor):
        meta = TensorMeta(dims=tensor.shape, core=(4, 3, 3))
        plan = Planner(4, tree="optimal", grid="dynamic").plan(meta)
        session = TuckerSession()
        r1 = session.run(tensor, plan=plan, max_iters=1)
        r2 = session.run(tensor, plan=plan, max_iters=1)
        assert r1.from_cache is False and r2.from_cache is True
        assert session.cache_info()["hits"] == 1

    def test_max_iters_zero_returns_init(self, tensor):
        session = TuckerSession()
        res = session.run(
            tensor, (4, 3, 3), n_procs=2, planner="optimal", max_iters=0
        )
        assert res.errors == [] and res.n_iters == 0
        assert res.error == res.sthosvd_error
        init = sthosvd(tensor, (4, 3, 3))
        hres = session.hooi(tensor, init, n_procs=2, max_iters=0)
        assert hres.decomposition is init and hres.errors == []
        with pytest.raises(ValueError, match="factor list"):
            session.hooi(tensor, init.factors, n_procs=2, max_iters=0)

    def test_hooi_run_share_string_planner_cache(self, tensor):
        session = TuckerSession()
        session.run(tensor, (4, 3, 3), n_procs=4, planner="optimal", max_iters=1)
        init = sthosvd(tensor, (4, 3, 3))
        session.hooi(tensor, init, n_procs=4, planner="optimal", max_iters=1)
        assert session.cache_info()["hits"] == 1

    def test_sthosvd_runs_on_backend_in_run(self, tensor):
        from repro.backends import ThreadedBackend

        backend = ThreadedBackend(n_workers=2)
        TuckerSession(backend=backend).run(
            tensor, (4, 3, 3), n_procs=4, planner="optimal", max_iters=1
        )
        # the init pass is recorded under sthosvd: tags on the backend
        assert backend.ledger.flops(tag_prefix="sthosvd:") > 0

    def test_wrong_shape_plan_rejected(self, tensor):
        meta = TensorMeta(dims=(9, 9, 9), core=(3, 3, 3))
        session = TuckerSession()
        cp = session.compile(meta, 2, planner="optimal")
        with pytest.raises(ValueError, match="plan dims"):
            session.run(tensor, plan=cp)

    def test_skip_hooi(self, tensor):
        session = TuckerSession()
        res = session.run(tensor, (4, 3, 3), n_procs=2, skip_hooi=True)
        assert res.errors == [] and res.n_iters == 0
        assert res.error == res.sthosvd_error

    def test_dtype_knob_and_preservation(self, tensor):
        session = TuckerSession()
        r32 = session.run(
            tensor.astype(np.float32), (4, 3, 3), n_procs=2,
            planner="optimal", max_iters=2,
        )
        assert r32.decomposition.core.dtype == np.float32
        assert all(f.dtype == np.float32 for f in r32.decomposition.factors)
        forced = session.run(
            tensor, (4, 3, 3), n_procs=2, planner="optimal",
            dtype=np.float32, max_iters=2,
        )
        assert forced.decomposition.core.dtype == np.float32
        default = session.run(
            tensor, (4, 3, 3), n_procs=2, planner="optimal", max_iters=2
        )
        assert default.decomposition.core.dtype == np.float64
        # float32 run still converges to the same error at float32 precision
        assert forced.error == pytest.approx(default.error, abs=1e-4)

    def test_session_hooi_from_init(self, tensor):
        init = sthosvd(tensor, (4, 3, 3), mode_order="optimal")
        session = TuckerSession()
        res = session.hooi(tensor, init, n_procs=4, max_iters=3, tol=0.0)
        assert res.n_iters == 3
        assert np.isnan(res.sthosvd_error)
        assert res.error <= init.error_vs(tensor) + 1e-12


class TestRunFrontDoor:
    """``session.run`` as the one-call front door, sequential and clustered."""

    def test_sequential_default(self, tensor):
        res = TuckerSession().run(tensor, (4, 3, 3), max_iters=4)
        assert res.error <= res.sthosvd_error + 1e-12
        assert res.decomposition.core_dims == (4, 3, 3)
        assert res.compression_ratio > 1
        assert res.backend == "sequential"

    def test_distributed_matches_sequential(self, tensor):
        # pin the planner so both paths share the exact plan
        planner = Planner(4, tree="optimal", grid="dynamic")
        seq = TuckerSession().run(
            tensor, (4, 3, 3), planner=planner, max_iters=3, tol=0.0
        )
        dist = TuckerSession(backend="simcluster", cluster=SimCluster(4)).run(
            tensor, (4, 3, 3), planner=planner, max_iters=3, tol=0.0
        )
        np.testing.assert_allclose(dist.errors, seq.errors, atol=1e-9)

    def test_named_planner(self, tensor):
        res = TuckerSession().run(
            tensor, (4, 3, 3), planner="balanced", max_iters=2
        )
        assert res.plan.tree_kind == "balanced"
        assert res.plan.grid_kind == "dynamic"

    def test_planner_instance(self, tensor):
        res = TuckerSession().run(
            tensor, (4, 3, 3),
            planner=Planner(2, tree="chain-k", grid="static"), max_iters=2,
        )
        assert res.plan.tree_kind == "chain-k"

    def test_core_dims_validated(self, tensor):
        with pytest.raises(ValueError):
            TuckerSession().run(tensor, (40, 3, 3))

    def test_cluster_size_drives_planner(self, tensor):
        cluster = SimCluster(8)
        session = TuckerSession(backend="simcluster", cluster=cluster)
        res = session.run(tensor, (4, 3, 3), max_iters=2)
        assert res.plan.n_procs == 8
        assert cluster.stats.volume() > 0


class TestStorageIsASessionSetting:
    """Storage is fixed per session: no run entry takes a storage knob."""

    KNOBS = {
        "storage": "mmap",
        "memory_budget": "16K",
        "spill_dir": ".",
        "spill_codec": "raw",
    }

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    @pytest.mark.parametrize("entry", ["run", "hooi", "sthosvd", "run_many"])
    def test_run_entries_reject_storage_knobs(self, tensor, entry, knob):
        session = TuckerSession()
        second = (
            sthosvd(tensor, (4, 3, 3)) if entry == "hooi" else (4, 3, 3)
        )
        first = [tensor] if entry == "run_many" else tensor
        with pytest.raises(TypeError, match=knob):
            getattr(session, entry)(first, second, **{knob: self.KNOBS[knob]})
