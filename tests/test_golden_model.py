"""Golden snapshot of the metadata-only cost model.

``tests/golden/model_reports.json`` freezes, for the three golden-ledger
configurations, what the model says about one HOOI invocation: every
:class:`~repro.hooi.model.ModelReport` phase's flops, volume, compute and
communication seconds (on ``MachineModel.bgq_like()``), the per-step
volumes a trace is annotated with (:func:`modeled_step_volumes`) and the
per-rank peak bytes (:func:`plan_peak_bytes_per_rank`). Floats are stored
as ``repr`` strings, so equality is bit for bit: a refactor of how a plan
is priced must not move a single float.

The record depends only on shapes and plans, never on tensor values or
timing. Regenerate (only when a change is *supposed* to move it)::

    PYTHONPATH=src:tests python -m test_golden_model
"""

import json
import os

import pytest

from repro.core.memory import plan_peak_bytes_per_rank
from repro.core.meta import TensorMeta
from repro.core.planner import Planner
from repro.hooi.model import predict
from repro.obs import modeled_step_volumes
from test_golden_ledger import CONFIGS  # one set of golden configurations

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "model_reports.json")

PHASES = ("ttm", "regrid", "svd", "core")


def build_record(config: dict) -> dict:
    """The model's view of one configuration, floats as ``repr``."""
    meta = TensorMeta(dims=config["dims"], core=config["core"])
    plan = Planner(
        config["n_procs"], tree=config["tree"], grid=config["grid"]
    ).plan(meta)
    report = predict(plan)
    return {
        "phases": {
            name: {
                "flops": getattr(report, name).flops,
                "volume": getattr(report, name).volume,
                "compute_seconds": repr(getattr(report, name).compute_seconds),
                "comm_seconds": repr(getattr(report, name).comm_seconds),
            }
            for name in PHASES
        },
        "step_volumes": modeled_step_volumes(plan),
        "peak_bytes": {
            k: repr(v) for k, v in plan_peak_bytes_per_rank(plan).items()
        },
    }


def build_snapshot() -> dict:
    snapshot = {name: build_record(CONFIGS[name]) for name in sorted(CONFIGS)}
    # Normalize through JSON so the comparison sees what the file holds.
    return json.loads(json.dumps(snapshot))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_model_report_matches_golden_bit_for_bit(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert build_snapshot()[name] == golden[name]


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(build_snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
