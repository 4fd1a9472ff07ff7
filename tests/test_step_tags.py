"""Order-and-tag snapshot of every phase's ledger.

``tests/golden/step_tags.json`` freezes the ordered ``(op, tag)`` list of
``result.ledger`` for each way into the pipeline — ``run`` (exact),
``sthosvd``, ``hooi``, ``rsthosvd`` with one power iteration and
``sp-rsthosvd`` — on one 3-D and one 4-D configuration, on the sequential
reference and on the virtual cluster. The golden ledgers pin *how much*
each backend charges; this pins *which* kernel calls a phase makes, under
which tags, in which order, so a change to the Step compiler or to the
interpreter that replays its programs cannot reorder, drop or relabel a
call unnoticed.

The lists depend only on shapes, plans and fixed iteration counts
(``tol=-inf`` never stops early) — never on tensor values or timing — so
exact equality is safe. Regenerate (only when a change is *supposed* to
move them)::

    PYTHONPATH=src:tests python -m test_step_tags
"""

import json
import os

import pytest

from repro.hooi.sthosvd import sthosvd
from repro.session import TuckerSession
from repro.tensor.random import low_rank_tensor

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "step_tags.json")

CONFIGS = {
    "3d_p8": {"dims": (20, 15, 6), "core": (10, 5, 3), "n_procs": 8},
    "4d_p8": {"dims": (12, 12, 9, 8), "core": (4, 6, 3, 4), "n_procs": 8},
}

BACKENDS = ("sequential", "simcluster")

#: two full sweeps on every backend, whatever the values do.
SWEEPS = {"max_iters": 2, "tol": float("-inf")}


def _entries(session, t, core, init, n_procs):
    plan = {"planner": "optimal", "n_procs": n_procs}
    return {
        "run": lambda: session.run(t, core, **plan, **SWEEPS),
        "sthosvd": lambda: session.sthosvd(t, core, **plan),
        "hooi": lambda: session.hooi(t, init, **plan, **SWEEPS),
        "rsthosvd": lambda: session.run(
            t, core, method="rsthosvd", power_iters=1, **plan, **SWEEPS
        ),
        "sp-rsthosvd": lambda: session.run(
            t, core, method="sp-rsthosvd", **plan, **SWEEPS
        ),
    }


def build_snapshot() -> dict:
    """``{config: {backend: {entry: ["op tag", ...]}}}``, rebuilt from scratch."""
    snapshot: dict = {}
    for name, config in sorted(CONFIGS.items()):
        dims, core, n_procs = config["dims"], config["core"], config["n_procs"]
        t = low_rank_tensor(dims, core, noise=0.1, seed=0)
        init = sthosvd(t, core, mode_order="optimal")
        snapshot[name] = {}
        for backend in BACKENDS:
            with TuckerSession(backend, n_procs=n_procs) as session:
                snapshot[name][backend] = {
                    entry: [
                        f"{record.op} {record.tag}"
                        for record in call().ledger.records
                    ]
                    for entry, call in _entries(
                        session, t, core, init, n_procs
                    ).items()
                }
    return snapshot


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class TestStepTags:
    def test_snapshot_matches_golden_exactly(self, golden):
        assert build_snapshot() == golden

    def test_snapshot_covers_every_phase_vocabulary(self, golden):
        # the snapshot is only a guard if it exercises each program
        tags = {
            record.split()[1]
            for backends in golden.values()
            for entries in backends.values()
            for records in entries.values()
            for record in records
        }
        for prefix in (
            "sthosvd:svd", "sthosvd:ttm", "hooi:it1:ttm:n", "hooi:it1:svd:m",
            "hooi:it1:core:ttm", "hooi:it0:regrid:n", "hooi:it0:core:regrid",
            "rsthosvd:sketch:m", "rsthosvd:ttm", "sp-rsthosvd:sketch",
            "norm:input", "norm:core",
        ):
            assert any(tag.startswith(prefix) for tag in tags), prefix
        assert any(":power0:xgram" in tag for tag in tags)


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(build_snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
