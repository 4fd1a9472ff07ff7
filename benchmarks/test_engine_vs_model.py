"""Ablation D — executed engine volumes vs the closed-form model.

The whole substitution argument (DESIGN.md section 2) rests on the virtual
cluster reproducing the paper's machine-independent statistics. This bench
executes real HOOI invocations on the engine for a spread of problem shapes
and grids and compares recorded volumes against the model:

* TTM reduce-scatter:    engine == model, exactly;
* regridding:            engine <= model (model charges a full |In|);
* SVD (regrid+allreduce): engine <= model.
"""

import numpy as np

from repro.bench.report import ascii_table
from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.dist.dtensor import DistTensor
from repro.hooi.hooi import hooi_step_distributed
from repro.hooi.model import predict
from repro.hooi.sthosvd import sthosvd
from repro.dist.comm import SimCluster
from repro.tensor.random import low_rank_tensor

CASES = [
    ((12, 10, 8, 6), (4, 3, 3, 2), 8, "dynamic"),
    ((12, 10, 8, 6), (4, 3, 3, 2), 8, "static"),
    ((16, 12, 9), (4, 6, 3), 4, "dynamic"),
    ((10, 10, 10, 5, 4), (5, 5, 5, 2, 2), 16, "dynamic"),
    ((20, 15, 6), (10, 5, 3), 8, "static"),
]


def _run_case(dims, core, n_procs, grid_kind):
    meta = TensorMeta(dims=dims, core=core)
    t = low_rank_tensor(dims, core, noise=0.2, seed=42)
    init = sthosvd(t, core)
    plan = Planner(n_procs, tree="optimal", grid=grid_kind).plan(meta)
    cluster = SimCluster(n_procs)
    dt = DistTensor.from_global(cluster, t, plan.initial_grid)
    hooi_step_distributed(dt, init.factors, plan, tag="h")
    rep = predict(plan)
    return {
        "engine_rs": cluster.stats.volume(op="reduce_scatter", tag_prefix="h:ttm"),
        "model_rs": rep.ttm.volume,
        "engine_rg": cluster.stats.volume(op="alltoallv", tag_prefix="h:regrid"),
        "model_rg": rep.regrid.volume,
        "engine_svd": cluster.stats.volume(tag_prefix="h:svd"),
        "model_svd": rep.svd.volume,
        "engine_core_rs": cluster.stats.volume(
            op="reduce_scatter", tag_prefix="h:core"
        ),
        "model_core_rs": plan.core_ttm_volume,
    }


def test_engine_matches_model(benchmark):
    def run_all():
        return [_run_case(*case) for case in CASES]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for case, r in zip(CASES, results):
        dims, core, p, kind = case
        rows.append(
            [
                "x".join(map(str, dims)),
                p,
                kind,
                f"{r['engine_rs']:.0f}/{r['model_rs']}",
                f"{r['engine_rg']:.0f}/{r['model_rg']}",
                f"{r['engine_svd']:.0f}/{r['model_svd']}",
            ]
        )
        assert r["engine_rs"] == r["model_rs"]
        assert r["engine_core_rs"] == r["model_core_rs"]
        assert r["engine_rg"] <= r["model_rg"]
        assert r["engine_svd"] <= r["model_svd"]
        if r["model_rg"] > 0:
            # regrids move a substantial share of the modeled bound
            assert r["engine_rg"] >= 0.25 * r["model_rg"]
    print()
    print(
        ascii_table(
            ["tensor", "P", "grids", "rs eng/model", "regrid eng/model", "svd eng/model"],
            rows,
            title="Ablation D: executed vs modeled communication volumes "
            "(elements)",
        )
    )
    assert np.all([r["engine_rs"] == r["model_rs"] for r in results])
