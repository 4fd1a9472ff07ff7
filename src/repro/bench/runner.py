"""Plan-level sweep: model algorithm configs over tensor suites.

For each (tensor, algorithm) pair the runner plans (tree + grids) — routed
through a shared :class:`~repro.session.TuckerSession` so repeated sweeps
over the same metadata hit the compiled-plan cache — and asks the model
executor (:mod:`repro.hooi.model`) for one invocation's metrics.
Metrics per record:

``flops``            TTM-component multiply-adds (exact; Fig 11c/d)
``ttm_volume``       TTM reduce-scatter volume (elements)
``regrid_volume``    regrid volume (elements)
``comm_volume``      the two above summed (Fig 11f)
``tree_compute_s``   TTM compute time, tree only (Fig 11a/b)
``tree_comm_s``      TTM + regrid comm time, tree only (Fig 11e)
``svd_s``            SVD phase time
``total_s``          overall invocation time (Fig 10)

Every number here is *modelled* from metadata (load, volume, the
alpha-beta machine), as in the paper's evaluation; nothing in this
module reads a clock. Measured seconds live in ``benchmarks/perf/``
(``BENCHMARK.json``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bench.algorithms import make_planner
from repro.core.meta import TensorMeta
from repro.hooi.model import predict
from repro.mpi.machine import MachineModel
from repro.session import TuckerSession


def planning_session() -> TuckerSession:
    """The sweep-wide planning session (shared compiled-plan LRU cache)."""
    global _session
    if _session is None:
        _session = TuckerSession(backend="sequential", cache_size=128)
    return _session


_session: TuckerSession | None = None


def evaluate_algorithms(
    meta: TensorMeta,
    algorithms: Sequence[str],
    n_procs: int = 32,
    machine: MachineModel | None = None,
) -> dict[str, dict[str, float]]:
    """Plan + model one tensor under each named algorithm."""
    machine = machine if machine is not None else MachineModel.bgq_like()
    session = planning_session()
    out: dict[str, dict[str, float]] = {}
    for name in algorithms:
        plan = session.compile(
            meta, planner=make_planner(name, n_procs)
        ).plan
        report = predict(plan, machine)
        out[name] = {
            "flops": float(plan.flops),
            "ttm_volume": float(plan.ttm_volume),
            "regrid_volume": float(plan.regrid_volume),
            "comm_volume": float(plan.total_volume),
            "tree_compute_s": report.tree_compute_seconds,
            "tree_comm_s": report.tree_comm_seconds,
            "svd_s": report.svd_seconds,
            "total_s": report.total_seconds,
        }
    return out


def sweep(
    metas: Iterable[TensorMeta],
    algorithms: Sequence[str],
    n_procs: int = 32,
    machine: MachineModel | None = None,
) -> list[dict]:
    """Evaluate every tensor; returns one record per tensor.

    Record layout: ``{"meta": TensorMeta, "algs": {name: metrics}}``.
    """
    machine = machine if machine is not None else MachineModel.bgq_like()
    records = []
    for meta in metas:
        records.append(
            {
                "meta": meta,
                "algs": evaluate_algorithms(meta, algorithms, n_procs, machine),
            }
        )
    return records


def normalize_against(
    records: list[dict], metric: str, baseline: str
) -> dict[str, list[float]]:
    """Per-tensor ratios ``alg_metric / baseline_metric`` for each algorithm.

    This is the paper's normalization ("we normalized the execution times
    w.r.t. the execution time of the opt-tree algorithm, which becomes 1
    unit"). Baseline values of zero (possible for communication volume when
    a scheme is communication-free) are handled by reporting 1.0 when the
    algorithm's value is also zero and ``inf`` otherwise.
    """
    out: dict[str, list[float]] = {}
    for rec in records:
        base = rec["algs"][baseline][metric]
        for name, metrics in rec["algs"].items():
            val = metrics[metric]
            if base == 0:
                ratio = 1.0 if val == 0 else float("inf")
            else:
                ratio = val / base
            out.setdefault(name, []).append(ratio)
    return out
