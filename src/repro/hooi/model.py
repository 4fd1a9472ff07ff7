"""Metadata-only performance model of one HOOI invocation.

The large benchmark (about 18k canonical tensors, up to 8e9 elements each)
cannot be *executed*, even by the real paper — its authors measure a single
invocation precisely because cost depends only on metadata. This module
closes the loop for us: given a :class:`~repro.core.planner.Plan` and a
:class:`~repro.dist.machine.MachineModel`, it prices every charge of
:func:`~repro.core.volume.plan_charges` — the exact FLOP and volume
integers the planner optimized — as alpha-beta time, per phase:

* TTM compute (per-rank dgemm), TTM reduce-scatter, regridding;
* the SVD step per leaf: regrid to ``q_n = 1`` (or mode-group allgather),
  distributed Gram (syrk), world allreduce of the Gram matrix, sequential
  EVD;
* the new-core chain (on the plan's core scheme, in its core order).

The engine-vs-model tests verify the volumes of an *executed* invocation
match these closed forms exactly (reduce-scatter/allgather/allreduce) or
are bounded by them (regrid, where the model charges the full ``|In(u)|``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.planner import Plan
from repro.core.volume import plan_charges
from repro.dist.machine import MachineModel


@dataclass
class Phase:
    """Aggregated metrics of one phase of the invocation."""

    flops: int = 0
    volume: int = 0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds


@dataclass
class ModelReport:
    """Predicted metrics of one HOOI invocation under a plan."""

    plan: Plan
    machine: MachineModel
    ttm: Phase = field(default_factory=Phase)
    regrid: Phase = field(default_factory=Phase)
    svd: Phase = field(default_factory=Phase)
    core: Phase = field(default_factory=Phase)

    # -- the aggregates the paper's figures use ------------------------- #

    @property
    def ttm_compute_seconds(self) -> float:
        """TTM computation time (Fig 11a/b; includes the core chain)."""
        return self.ttm.compute_seconds + self.core.compute_seconds

    @property
    def ttm_comm_seconds(self) -> float:
        """TTM communication time incl. regridding (Fig 11e semantics)."""
        return (
            self.ttm.comm_seconds
            + self.regrid.comm_seconds
            + self.core.comm_seconds
        )

    @property
    def tree_compute_seconds(self) -> float:
        """TTM-component compute time only (tree TTMs, no core chain)."""
        return self.ttm.compute_seconds

    @property
    def tree_comm_seconds(self) -> float:
        """TTM-component comm time only: reduce-scatter + regrid, no core."""
        return self.ttm.comm_seconds + self.regrid.comm_seconds

    @property
    def svd_seconds(self) -> float:
        return self.svd.seconds

    @property
    def total_seconds(self) -> float:
        """Overall invocation time (Fig 10 semantics)."""
        return (
            self.ttm.seconds
            + self.regrid.seconds
            + self.svd.seconds
            + self.core.seconds
        )

    @property
    def ttm_flops(self) -> int:
        """TTM-component load (Fig 11c/d; tree only, as in section 3)."""
        return self.ttm.flops

    @property
    def comm_volume(self) -> int:
        """TTM + regrid volume (Fig 11f semantics)."""
        return self.ttm.volume + self.regrid.volume


def predict(plan: Plan, machine: MachineModel | None = None) -> ModelReport:
    """Compute the :class:`ModelReport` of one invocation of ``plan``."""
    machine = machine if machine is not None else MachineModel.bgq_like()
    p = plan.n_procs
    report = ModelReport(plan=plan, machine=machine)
    for charge in plan_charges(plan):
        if not (charge.flops or charge.volume):
            continue  # a regrid onto the grid the tensor already has
        phase = getattr(report, charge.phase)
        phase.flops += charge.flops
        phase.volume += charge.volume
        if charge.op == "gemm":
            phase.compute_seconds += machine.gemm_seconds(charge.flops / p)
        elif charge.op == "evd":
            phase.compute_seconds += machine.evd_seconds(charge.flops)
        elif charge.op == "allreduce":
            phase.comm_seconds += machine.allreduce_seconds(p, charge.card)
        else:
            seconds = getattr(machine, f"{charge.op}_seconds")
            phase.comm_seconds += seconds(charge.group, charge.volume / p)
    return report
