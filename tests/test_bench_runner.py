"""Tests for the sweep runner and algorithm configs."""

import math

import pytest

from repro.bench.algorithms import ALGORITHMS, make_planner, paper_label
from repro.bench.runner import evaluate_algorithms, normalize_against, sweep
from repro.bench.suite import paper_subsample
from repro.core.meta import TensorMeta


@pytest.fixture
def meta():
    return TensorMeta(dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25))


class TestAlgorithms:
    def test_all_configs_instantiable(self):
        for name in ALGORITHMS:
            p = make_planner(name, 8)
            assert p.n_procs == 8

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_planner("quantum", 8)

    def test_paper_labels(self):
        assert paper_label("chain-k") == "CK"
        assert paper_label("opt-dynamic") == "OPT"


class TestEvaluate:
    def test_metric_keys(self, meta):
        out = evaluate_algorithms(meta, ["chain-k", "opt-dynamic"], n_procs=8)
        for metrics in out.values():
            assert set(metrics) == {
                "flops",
                "ttm_volume",
                "regrid_volume",
                "comm_volume",
                "tree_compute_s",
                "tree_comm_s",
                "svd_s",
                "total_s",
            }
            assert all(math.isfinite(v) for v in metrics.values())

    def test_opt_has_min_flops(self, meta):
        out = evaluate_algorithms(meta, list(ALGORITHMS), n_procs=8)
        opt = out["opt-dynamic"]["flops"]
        for name, metrics in out.items():
            assert metrics["flops"] >= opt

    def test_dynamic_volume_le_static_on_same_tree(self, meta):
        out = evaluate_algorithms(
            meta, ["opt-static", "opt-dynamic"], n_procs=8
        )
        assert out["opt-dynamic"]["comm_volume"] <= out["opt-static"]["comm_volume"]


class TestSweepAndNormalize:
    def test_sweep_record_shape(self):
        metas = paper_subsample(5, count=4)
        recs = sweep(metas, ["chain-k", "opt-dynamic"], n_procs=8)
        assert len(recs) == 4
        for rec in recs:
            assert set(rec["algs"]) == {"chain-k", "opt-dynamic"}

    def test_normalize_baseline_is_one(self):
        metas = paper_subsample(5, count=4)
        recs = sweep(metas, ["chain-k", "opt-dynamic"], n_procs=8)
        norm = normalize_against(recs, "total_s", "opt-dynamic")
        assert all(v == 1.0 for v in norm["opt-dynamic"])
        assert len(norm["chain-k"]) == 4

    def test_normalize_zero_baseline(self):
        recs = [
            {"meta": None, "algs": {"a": {"x": 0.0}, "b": {"x": 0.0}}},
            {"meta": None, "algs": {"a": {"x": 0.0}, "b": {"x": 2.0}}},
        ]
        norm = normalize_against(recs, "x", "a")
        assert norm["b"] == [1.0, float("inf")]
