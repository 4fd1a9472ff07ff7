"""Tests for the time-aware portfolio planner."""

import pytest

from repro.bench.algorithms import ALGORITHMS, make_planner
from repro.core.meta import TensorMeta
from repro.hooi.model import predict
from repro.hooi.portfolio import DEFAULT_CANDIDATES, select_plan
from repro.dist.machine import MachineModel


@pytest.fixture
def meta():
    return TensorMeta(dims=(50, 20, 100, 20, 50), core=(10, 16, 20, 2, 25))


class TestSelectPlan:
    def test_returns_fastest_candidate(self, meta):
        choice = select_plan(meta, 32)
        assert choice.modeled_seconds == min(choice.scores.values())
        assert choice.scores[choice.config] == choice.modeled_seconds

    def test_dominates_every_paper_config(self, meta):
        machine = MachineModel.bgq_like()
        choice = select_plan(meta, 32, machine)
        for name in ALGORITHMS:
            plan = make_planner(name, 32).plan(meta)
            assert choice.modeled_seconds <= predict(plan, machine).total_seconds + 1e-12

    def test_dominates_on_adversarial_tensor(self):
        # a tensor where opt-dynamic loses to chain trees (tiny core dims);
        # the portfolio must pick the better configuration
        m = TensorMeta(dims=(20, 20, 100, 100, 100), core=(2, 4, 10, 10, 10))
        machine = MachineModel.bgq_like()
        choice = select_plan(m, 32, machine)
        opt = predict(make_planner("opt-dynamic", 32).plan(m), machine)
        ck = predict(make_planner("chain-k", 32).plan(m), machine)
        assert choice.modeled_seconds <= min(
            opt.total_seconds, ck.total_seconds
        ) + 1e-12

    def test_tie_breaks_toward_first_candidate(self, meta):
        # duplicate candidates: the first instance wins
        choice = select_plan(
            meta, 32, candidates=(("optimal", "dynamic"), ("optimal", "dynamic"))
        )
        assert choice.config == ("optimal", "dynamic")

    def test_empty_candidates_rejected(self, meta):
        with pytest.raises(ValueError):
            select_plan(meta, 32, candidates=())

    def test_scores_cover_candidates(self, meta):
        choice = select_plan(meta, 32)
        assert set(choice.scores) == set(DEFAULT_CANDIDATES)
