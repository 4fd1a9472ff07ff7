"""Tests for plan execution: compiled tree / core-chain schedules replayed
on the sequential and simcluster backends."""

import numpy as np
import pytest

from repro.backends import (
    SequentialBackend,
    SimClusterBackend,
    compile_core_steps,
    compile_tree_steps,
    run_steps,
    run_sweep,
)
from repro.core.meta import TensorMeta
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Planner
from repro.dist.dtensor import DistTensor
from repro.hooi.hooi import (
    hooi_reference_step,
    hooi_step_distributed,
    hooi_step_sequential,
)
from repro.hooi.sthosvd import sthosvd
from repro.mpi.comm import SimCluster
from repro.tensor.random import low_rank_tensor, random_tensor


def tree_sequential(t, factors, plan):
    """One invocation's TTM component + SVDs on the numpy backend."""
    new = {}
    run_steps(
        SequentialBackend(), t, compile_tree_steps(plan.tree, plan.meta),
        factors, new, tag="hooi",
    )
    return new


def tree_distributed(dt, factors, plan, tag="hooi"):
    """The same walk on the engine, regridding per the plan's scheme."""
    new = {}
    run_steps(
        SimClusterBackend(dt.cluster),
        dt,
        compile_tree_steps(plan.tree, plan.meta, scheme=plan.scheme),
        factors,
        new,
        tag=tag,
    )
    return new


@pytest.fixture
def problem():
    dims, core = (12, 10, 8, 6), (4, 3, 3, 2)
    t = low_rank_tensor(dims, core, noise=0.1, seed=0)
    meta = TensorMeta(dims=dims, core=core)
    init = sthosvd(t, core)
    return t, meta, init


class TestSequentialExecution:
    @pytest.mark.parametrize(
        "tree_kind", ["optimal", "chain-k", "chain-h", "balanced"]
    )
    def test_all_trees_match_naive_reference(self, problem, tree_kind):
        # any valid TTM-tree must produce the same new factors as the naive
        # N-independent-chains implementation (commutativity, section 2.1)
        t, meta, init = problem
        plan = Planner(4, tree=tree_kind, grid="static").plan(meta)
        new = tree_sequential(t, init.factors, plan)
        ref = hooi_reference_step(t, init.factors, meta.core)
        for mode in range(meta.ndim):
            np.testing.assert_allclose(
                new[mode], ref.factors[mode], atol=1e-8
            )

    def test_every_factor_produced(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        new = tree_sequential(t, init.factors, plan)
        assert sorted(new) == list(range(meta.ndim))

    def test_sweep_rejects_a_tree_program_missing_a_factor(self, problem):
        t, meta, init = problem
        steps = compile_tree_steps(Planner(4).plan(meta).tree, meta)
        partial = tuple(s for s in steps if not (s.op == "svd" and s.mode == 2))
        with pytest.raises(AssertionError, match="every factor"):
            run_sweep(SequentialBackend(), t, init.factors, partial, ())

    def test_factor_shape_validation(self, problem):
        t, meta, init = problem
        plan = Planner(4).plan(meta)
        bad = list(init.factors)
        bad[0] = bad[0][:, :-1]
        with pytest.raises(ValueError, match="factor 0"):
            hooi_step_sequential(t, bad, plan)

    def test_core_matches_reference(self, problem):
        t, meta, init = problem
        ref = hooi_reference_step(t, init.factors, meta.core)
        core, _, _ = run_steps(
            SequentialBackend(),
            t,
            compile_core_steps(optimal_chain_ordering(meta)),
            ref.factors,
            tag="core",
        )
        np.testing.assert_allclose(core, ref.core, atol=1e-8)


class TestDistributedExecution:
    @pytest.mark.parametrize("grid_kind", ["static", "dynamic"])
    def test_matches_sequential(self, problem, grid_kind):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid=grid_kind).plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        new = tree_distributed(dt, init.factors, plan)
        seq = tree_sequential(t, init.factors, plan)
        for mode in range(meta.ndim):
            np.testing.assert_allclose(new[mode], seq[mode], atol=1e-8)

    def test_wrong_grid_rejected(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        # distribute on some other valid grid
        other = tuple(
            g for g in [(1, 1, 2, 4), (2, 2, 2, 1), (8, 1, 1, 1)]
            if g != plan.initial_grid
        )[0]
        dt = DistTensor.from_global(cluster, t, other)
        with pytest.raises(ValueError, match="grid"):
            hooi_step_distributed(dt, init.factors, plan)

    def test_wrong_shape_rejected(self, problem):
        _, meta, init = problem
        plan = Planner(8).plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(
            cluster, random_tensor((12, 10, 8, 7), seed=1), (2, 2, 2, 1)
        )
        with pytest.raises(ValueError, match="plan dims"):
            hooi_step_distributed(dt, init.factors, plan)

    def test_core_chain_with_scheme(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        ref = hooi_reference_step(t, init.factors, meta.core)
        core, _, _ = run_steps(
            SimClusterBackend(cluster),
            dt,
            compile_core_steps(plan.core_order, plan.core_scheme),
            ref.factors,
            tag="core",
        )
        np.testing.assert_allclose(core.to_global(), ref.core, atol=1e-8)

    def test_regrid_volumes_match_plan(self, problem):
        # executed regrid volume must never exceed the plan's model charge
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        tree_distributed(dt, init.factors, plan, tag="hooi")
        engine_regrid = cluster.stats.volume(
            op="alltoallv", tag_prefix="hooi:regrid"
        )
        assert engine_regrid <= plan.regrid_volume

    def test_rs_volume_matches_plan_exactly(self, problem):
        t, meta, init = problem
        plan = Planner(8, tree="optimal", grid="dynamic").plan(meta)
        cluster = SimCluster(8)
        dt = DistTensor.from_global(cluster, t, plan.initial_grid)
        tree_distributed(dt, init.factors, plan, tag="hooi")
        engine_rs = cluster.stats.volume(
            op="reduce_scatter", tag_prefix="hooi:ttm"
        )
        assert engine_rs == plan.ttm_volume
