"""Metadata-only performance model of one HOOI invocation.

The large benchmark (about 18k canonical tensors, up to 8e9 elements each)
cannot be *executed*, even by the real paper — its authors measure a single
invocation precisely because cost depends only on metadata. This module
closes the loop for us: given a :class:`~repro.core.planner.Plan` and a
:class:`~repro.dist.machine.MachineModel`, it computes the exact FLOP and
volume totals (integers, same formulas the planner optimized) and alpha-beta
times for every phase of one invocation:

* TTM compute (per-rank dgemm), TTM reduce-scatter, regridding;
* the SVD step per leaf: mode-group allgather, distributed Gram (syrk),
  world allreduce of the Gram matrix, sequential EVD;
* the new-core chain (on the plan's initial grid, optimal chain order).

The engine-vs-model tests verify the volumes of an *executed* invocation
match these closed forms exactly (reduce-scatter/allgather/allreduce) or
are bounded by them (regrid, where the model charges the full ``|In(u)|``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost import node_costs
from repro.core.grids import svd_regrid_target
from repro.core.ordering import optimal_chain_ordering
from repro.core.planner import Plan
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

    def _add(self, flops=0, volume=0, compute_seconds=0.0, comm_seconds=0.0):
        self.flops += flops
        self.volume += volume
        self.compute_seconds += compute_seconds
        self.comm_seconds += comm_seconds


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

    def breakdown(self) -> dict[str, float]:
        """Stacked-bar decomposition used by the Fig 10c bench."""
        return {
            "svd": self.svd_seconds,
            "ttm_compute": self.ttm_compute_seconds,
            "ttm_comm": self.ttm_comm_seconds,
        }


def predict(
    plan: Plan,
    machine: MachineModel | None = None,
    *,
    include_svd: bool = True,
    include_core: bool = True,
) -> ModelReport:
    """Compute the :class:`ModelReport` of one invocation of ``plan``."""
    machine = machine if machine is not None else MachineModel.bgq_like()
    meta = plan.meta
    p = plan.n_procs
    tree = plan.tree
    scheme = plan.scheme
    costs = node_costs(tree, meta)
    report = ModelReport(plan=plan, machine=machine)

    for node in tree.nodes:
        if node.kind == "root":
            continue
        parent = tree.parent(node)
        if node.kind == "ttm":
            grid = scheme.grid_of(node.uid)
            parent_grid = scheme.grid_of(parent.uid)
            in_card = costs[node.uid]["in_card"]
            out_card = costs[node.uid]["out_card"]
            # regrid (charged in full, like the planner's model)
            if tuple(grid) != tuple(parent_grid):
                report.regrid._add(
                    volume=in_card,
                    comm_seconds=machine.alltoall_seconds(p, in_card / p),
                )
            # local dgemm
            flops = costs[node.uid]["flops"]
            report.ttm._add(
                flops=flops,
                compute_seconds=machine.gemm_seconds(flops / p),
            )
            # reduce-scatter over the mode group
            q = grid[node.mode]
            report.ttm._add(
                volume=(q - 1) * out_card,
                comm_seconds=machine.reduce_scatter_seconds(
                    q, (q - 1) * out_card / p
                ),
            )
        elif node.kind == "leaf" and include_svd:
            # SVD of the parent's output along the leaf mode.
            grid = scheme.grid_of(parent.uid)
            z_card = costs[parent.uid]["out_card"]
            z_lengths = meta.shape_after(tree.premultiplied_mask(parent))
            ell = meta.dims[node.mode]
            target = svd_regrid_target(tuple(grid), z_lengths, node.mode)
            if target is not None:
                # regrid path: redistribute Z so q_mode = 1, local syrk.
                if tuple(target) != tuple(grid):
                    report.svd._add(
                        volume=z_card,
                        comm_seconds=machine.alltoall_seconds(p, z_card / p),
                    )
            else:
                # allgather fallback within the mode group.
                q = grid[node.mode]
                report.svd._add(
                    volume=(q - 1) * z_card,
                    comm_seconds=machine.allgather_seconds(
                        q, (q - 1) * z_card / p
                    ),
                )
            # distributed syrk (fibers split across ranks)
            gram_flops = ell * (ell + 1) // 2 * (z_card // ell)
            report.svd._add(
                flops=gram_flops,
                compute_seconds=machine.gemm_seconds(gram_flops / p),
            )
            # world allreduce of the L x L Gram
            report.svd._add(
                volume=2 * ell * ell * (p - 1),
                comm_seconds=machine.allreduce_seconds(p, ell * ell),
            )
            # replicated sequential EVD
            evd_flops = int(4 * ell**3 // 3)
            report.svd._add(
                flops=evd_flops,
                compute_seconds=machine.evd_seconds(evd_flops),
            )

    if include_core:
        # New-core chain per the plan's core scheme (static grid for static
        # configurations, path-DP grids for the dynamic one).
        order = list(plan.core_order) or optimal_chain_ordering(meta)
        grids = list(plan.core_scheme) or [plan.initial_grid] * len(order)
        prev = plan.initial_grid
        premult = 0
        card = meta.cardinality
        for mode, grid in zip(order, grids):
            if tuple(grid) != tuple(prev):
                report.core._add(
                    volume=card,
                    comm_seconds=machine.alltoall_seconds(p, card / p),
                )
            flops = meta.core[mode] * card
            premult |= 1 << mode
            out_card = meta.card_after(premult)
            q = grid[mode]
            report.core._add(
                flops=flops,
                volume=(q - 1) * out_card,
                compute_seconds=machine.gemm_seconds(flops / p),
                comm_seconds=machine.reduce_scatter_seconds(
                    q, (q - 1) * out_card / p
                ),
            )
            card = out_card
            prev = grid

    return report
