"""Time-aware plan selection: a portfolio over algorithm configurations.

The paper optimizes FLOPs (tree) and volume (grids) separately and reports
that (opt-tree, dynamic) wins everywhere on its benchmark. On our suite a
small tail of tensors (small, tiny-core) disagrees: the FLOP-optimal tree
can be communication-hostile and regrids cannot amortize their latency
(EXPERIMENTS.md, Fig 10 deviation analysis). Since the model executor
prices a complete invocation in microseconds, the fix is an obvious
extension the paper stops short of: plan *every* configuration, model each,
and keep the fastest. Planning cost stays negligible (ablation C) and the
result dominates each individual configuration by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.meta import TensorMeta
from repro.core.planner import Plan, Planner
from repro.hooi.model import ModelReport, predict
from repro.dist.machine import MachineModel

#: (tree kind, grid kind) pairs the portfolio prices by default: the
#: paper's evaluated configurations plus the chain/balanced trees under
#: dynamic gridding (cheap to add, occasionally the winner).
DEFAULT_CANDIDATES: tuple[tuple[str, str], ...] = (
    ("optimal", "dynamic"),
    ("optimal", "static"),
    ("balanced", "dynamic"),
    ("balanced", "static"),
    ("chain-k", "static"),
    ("chain-k", "dynamic"),
    ("chain-h", "static"),
)


@dataclass(frozen=True)
class PortfolioChoice:
    """Winner of a portfolio selection plus the scored alternatives."""

    plan: Plan
    report: ModelReport
    scores: dict[tuple[str, str], float]

    @property
    def config(self) -> tuple[str, str]:
        return (self.plan.tree_kind, self.plan.grid_kind)

    @property
    def modeled_seconds(self) -> float:
        return self.report.total_seconds


def select_plan(
    meta: TensorMeta,
    n_procs: int,
    machine: MachineModel | None = None,
    candidates: tuple[tuple[str, str], ...] = DEFAULT_CANDIDATES,
) -> PortfolioChoice:
    """Plan every candidate configuration, model it, return the fastest.

    Ties break toward the earlier candidate (so the paper's headline
    configuration wins ties). Raises if ``candidates`` is empty.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    machine = machine if machine is not None else MachineModel.bgq_like()
    scores: dict[tuple[str, str], float] = {}
    best: tuple[float, Plan, ModelReport] | None = None
    for tree_kind, grid_kind in candidates:
        plan = Planner(n_procs, tree=tree_kind, grid=grid_kind).plan(meta)
        report = predict(plan, machine)
        seconds = report.total_seconds
        scores[(tree_kind, grid_kind)] = seconds
        if best is None or seconds < best[0]:
            best = (seconds, plan, report)
    assert best is not None
    return PortfolioChoice(plan=best[1], report=best[2], scores=scores)
