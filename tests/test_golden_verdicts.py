"""Golden-verdict regression test for the auto backend selector.

``tests/golden/auto_verdicts.json`` freezes what ``select_backend``
decides over a grid of inputs: shapes from tiny to out-of-core sized,
the default and a calibrated profile, explicit and natural ``n_procs``,
several core counts, both working dtypes, resident and spilled runs,
every init method, and cold and warm pools. Each case records the
winning backend, its ``n_procs`` and the order of the backends' scores
— the decision, never the seconds, so a change to a term that prices
every backend alike (and so decides nothing) passes, while one that
flips a verdict fails.

The calibrated profile carries a ``storage`` section, as calibration
files written before the spill-I/O charge was dropped do: loading it
must keep the verdicts too.

Regenerate (only when a change is *supposed* to move verdicts)::

    PYTHONPATH=src:tests python -m test_golden_verdicts
"""

import itertools
import json
import os

import numpy as np

from repro.backends import default_profile, merge_profile, select_backend

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "auto_verdicts.json"
)

#: one letter per auto-eligible backend in the recorded verdicts.
LETTERS = {"sequential": "s", "threaded": "t", "procpool": "p"}

#: (dims, core) pairs: tiny to out-of-core, 3-D to 5-D, skewed too.
SHAPES = [
    [[8, 8, 8], [2, 2, 2]],
    [[24, 20, 16], [6, 5, 4]],
    [[64, 64, 64], [8, 8, 8]],
    [[96, 80, 64], [8, 8, 8]],
    [[256, 256, 256], [32, 32, 32]],
    [[1024, 1024, 512], [16, 16, 16]],
    [[40, 30, 20, 10], [8, 6, 5, 4]],
    [[72, 64, 60, 56], [8, 8, 8, 8]],
    [[4096, 64, 64], [32, 8, 8]],
    [[16, 16, 16, 16, 16], [4, 4, 4, 4, 4]],
]

#: a machine-measured profile as ``repro calibrate`` wrote it, storage
#: section included.
CALIBRATED = {
    "version": 1,
    "calibrated": True,
    "measured": ["sequential", "threaded", "procpool"],
    "backends": {
        "sequential": {"rate": 3.1e9, "startup": 0.0},
        "threaded": {"rate": 2.6e9, "startup": 4.0e-3},
        "procpool": {"rate": 2.9e9, "startup": 3.5e-1},
    },
    "storage": {
        "spill_write_bytes_per_s": 6.0e8,
        "spill_read_bytes_per_s": 1.6e9,
    },
}

AXES = {
    "shape": SHAPES,
    "profile": ["default", "calibrated"],
    "n_procs": [None, 1, 8],
    "available_cores": [1, 2, 8, 64],
    "dtype": ["float32", "float64"],
    "spilled": [False, True],
    "method": ["exact", "rsthosvd", "sp-rsthosvd"],
    "warm": [[], ["threaded", "procpool"]],
}


def cases(axes: dict):
    """Every combination of ``axes``, in a fixed order."""
    names = list(axes)
    for values in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, values))


def verdict(case: dict, profiles: dict) -> str:
    """``backend/n_procs/score order`` of one case, in letters."""
    dims, core = case["shape"]
    sel = select_backend(
        dims,
        core,
        n_procs=case["n_procs"],
        dtype=np.dtype(case["dtype"]),
        available_cores=case["available_cores"],
        profile=profiles[case["profile"]],
        warm=case["warm"],
        spilled=case["spilled"],
        method=case["method"],
    )
    order = "".join(
        LETTERS[name] for name in sorted(sel.scores, key=sel.scores.get)
    )
    return f"{LETTERS[sel.backend]}/{sel.n_procs}/{order}"


def profiles(calibrated: dict) -> dict:
    """The profiles a case names, keyed by name."""
    return {
        "default": default_profile(),
        "calibrated": merge_profile(calibrated),
    }


def build_record() -> dict:
    by_name = profiles(CALIBRATED)
    return {
        "axes": AXES,
        "profiles": {"calibrated": CALIBRATED},
        "verdicts": [verdict(case, by_name) for case in cases(AXES)],
    }


def test_every_recorded_verdict_is_reproduced():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    by_name = profiles(golden["profiles"]["calibrated"])
    recorded = golden["verdicts"]
    grid = list(cases(golden["axes"]))
    assert len(grid) == len(recorded) >= 2000
    changed = [
        (case, want, got)
        for case, want in zip(grid, recorded)
        if (got := verdict(case, by_name)) != want
    ]
    assert not changed, (
        f"{len(changed)} of {len(grid)} verdicts changed, e.g. {changed[:3]}"
    )


def test_golden_decides_more_than_one_way():
    # A grid where one backend always wins would pin nothing down.
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        verdicts = json.load(fh)["verdicts"]
    assert {v.split("/")[0] for v in verdicts} == set(LETTERS.values())
    assert len({v.split("/")[1] for v in verdicts}) > 2
    assert len({v.split("/")[2] for v in verdicts}) > 2


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(build_record(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
