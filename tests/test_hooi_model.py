"""Tests for the metadata-only model executor, including the engine-vs-model
agreement the substitution argument rests on (DESIGN.md section 2)."""

import numpy as np
import pytest

from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.dist.dtensor import DistTensor
from repro.hooi.hooi import hooi_step_distributed
from repro.hooi.model import predict
from repro.hooi.sthosvd import sthosvd
from repro.dist.comm import SimCluster
from repro.dist.machine import MachineModel
from repro.tensor.random import low_rank_tensor


@pytest.fixture
def meta():
    return TensorMeta(dims=(12, 10, 8, 6), core=(4, 3, 3, 2))


class TestPredictBasics:
    def test_flops_match_plan(self, meta):
        plan = Planner(8).plan(meta)
        rep = predict(plan)
        assert rep.ttm_flops == plan.flops

    def test_volumes_match_plan(self, meta):
        for grid in ("static", "dynamic"):
            plan = Planner(8, grid=grid).plan(meta)
            rep = predict(plan)
            assert rep.ttm.volume == plan.ttm_volume
            assert rep.regrid.volume == plan.regrid_volume
            assert rep.comm_volume == plan.total_volume
            assert rep.core.volume == (
                plan.core_ttm_volume + plan.core_regrid_volume
            )

    def test_include_flags(self, meta):
        plan = Planner(8).plan(meta)
        no_svd = predict(plan, include_svd=False)
        assert no_svd.svd.seconds == 0 and no_svd.svd.volume == 0
        no_core = predict(plan, include_core=False)
        assert no_core.core.seconds == 0 and no_core.core.volume == 0

    def test_total_is_sum_of_phases(self, meta):
        plan = Planner(8).plan(meta)
        rep = predict(plan)
        assert rep.total_seconds == pytest.approx(
            rep.ttm.seconds
            + rep.regrid.seconds
            + rep.svd.seconds
            + rep.core.seconds
        )

    def test_breakdown_keys(self, meta):
        rep = predict(Planner(8).plan(meta))
        assert set(rep.breakdown()) == {"svd", "ttm_compute", "ttm_comm"}

    def test_machine_scaling(self, meta):
        plan = Planner(8).plan(meta)
        fast = predict(plan, MachineModel(flop_rate=1e15))
        slow = predict(plan, MachineModel(flop_rate=1e9))
        assert slow.ttm.compute_seconds > fast.ttm.compute_seconds

    def test_single_rank_is_communication_free(self, meta):
        plan = Planner(1).plan(meta)
        rep = predict(plan)
        assert rep.comm_volume == 0
        assert rep.ttm.comm_seconds == 0
        assert rep.svd.volume == 0  # allreduce over 1 rank is free


class TestEngineVsModel:
    """Execute one HOOI invocation on the virtual cluster and compare with
    the closed-form model: reduce-scatter volumes match exactly, regrid is
    bounded by the model's |In| charge, SVD comm bounded by |Z| + allreduce."""

    @pytest.mark.parametrize("grid_kind", ["static", "dynamic"])
    @pytest.mark.parametrize("n_procs", [4, 8])
    def test_volume_agreement(self, meta, grid_kind, n_procs):
        t = low_rank_tensor(meta.dims, meta.core, noise=0.1, seed=1)
        init = sthosvd(t, meta.core)
        plan = Planner(n_procs, tree="optimal", grid=grid_kind).plan(meta)
        cluster = SimCluster(n_procs)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        hooi_step_distributed(dt, init.factors, plan, tag="h")
        rep = predict(plan)

        # tree TTM reduce-scatter: exact
        assert cluster.stats.volume(
            op="reduce_scatter", tag_prefix="h:ttm"
        ) == rep.ttm.volume
        # tree regrids: engine moves at most the modeled full redistribution
        assert cluster.stats.volume(
            op="alltoallv", tag_prefix="h:regrid"
        ) <= rep.regrid.volume
        # core chain reduce-scatter: exact
        assert (
            cluster.stats.volume(op="reduce_scatter", tag_prefix="h:core")
            == plan.core_ttm_volume
        )
        # core chain regrids: bounded by the model charge
        assert (
            cluster.stats.volume(op="alltoallv", tag_prefix="h:core")
            <= plan.core_regrid_volume
        )
        # SVD: engine <= model (regrid path counts moved-only)
        assert cluster.stats.volume(tag_prefix="h:svd") <= rep.svd.volume

    def test_engine_seconds_positive(self, meta):
        t = low_rank_tensor(meta.dims, meta.core, noise=0.1, seed=2)
        init = sthosvd(t, meta.core)
        plan = Planner(8).plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        hooi_step_distributed(dt, init.factors, plan)
        assert cluster.stats.total_seconds() > 0
