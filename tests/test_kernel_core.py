"""One kernel core for every executor, the virtual cluster included.

``repro.tensor.kernels`` holds each local kernel's arithmetic once and
``repro.tensor.linalg.gram_factor`` the one leading-k factor routine.
Held here:

* the leaf stays a leaf: ``repro.tensor`` imports nothing from
  ``repro.backends`` or ``repro.dist``, and every package that sits
  around the cycle ``repro`` -> ``repro.dist`` -> ... -> ``repro.backends``
  imports first in a fresh interpreter;
* the simulator provably runs those functions — spies on them count
  calls from a simcluster HOOI and a simcluster ``rsthosvd`` with power
  iteration;
* ``DistTensor.fro_norm_sq`` reads each brick in place.
"""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro.backends.blockkernels import KERNELS
from repro.dist.dtensor import DistTensor
from repro.mpi.comm import SimCluster
from repro.session import TuckerSession
from repro.tensor import kernels, linalg
from repro.tensor.random import low_rank_tensor
from test_tensor_ttm import traced_peak  # one reference

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: modules on the import cycle a kernel reached through repro.backends
#: would close; each must import first
FIRST_IMPORTS = [
    "repro.dist",
    "repro.tensor.kernels",
    "repro.backends.simcluster",
    "repro.hooi",
    "repro.mpi",
]

#: what a leaf under repro/tensor/ must not import
NOT_IN_LEAF = ("repro.backends", "repro.dist")


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def imported_modules(path: pathlib.Path, package: str) -> list:
    """``(line, dotted name)`` of every import in the file at ``path``,
    relative imports resolved against ``package``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module
            found.append((node.lineno, name))
    return found


def test_tensor_package_imports_neither_backends_nor_dist():
    offenders = [
        f"{path.name}:{line}: {name}"
        for path in sorted((SRC / "repro" / "tensor").glob("*.py"))
        for line, name in imported_modules(path, "repro.tensor")
        if any(f"{name}.".startswith(f"{bad}.") for bad in NOT_IN_LEAF)
    ]
    assert offenders == []


def test_the_leaf_scan_resolves_relative_imports(tmp_path):
    path = tmp_path / "leaf.py"
    path.write_text(
        "from ..backends.blockkernels import KERNELS\n"
        "from . import ttm\n"
        "import repro.dist.gram\n"
    )
    assert imported_modules(path, "repro.tensor") == [
        (1, "repro.backends.blockkernels"),
        (2, "repro.tensor"),
        (3, "repro.dist.gram"),
    ]


# --------------------------------------------------------------------- #
# the simulator runs the shared kernels
# --------------------------------------------------------------------- #

LEAF = {
    "ttm": kernels.ttm_block,
    "gram": kernels.gram_block,
    "xgram": kernels.xgram_block,
    "sketch": kernels.sketch_block,
    "norm": kernels.norm_block,
    "factor": linalg.gram_factor,
}


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts calls of the leaf functions, wherever ``repro`` holds them:
    every module attribute and ``KERNELS`` entry that *is* one of them is
    replaced by a counting wrapper."""
    counter: Counter = Counter()

    def spy(label, fn):
        def counted(*args, **kwargs):
            counter[label] += 1
            return fn(*args, **kwargs)

        return counted

    spies = {id(fn): spy(label, fn) for label, fn in LEAF.items()}
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in spies:
                monkeypatch.setattr(module, attr, spies[id(value)])
    for key, value in list(KERNELS.items()):
        if id(value) in spies:
            monkeypatch.setitem(KERNELS, key, spies[id(value)])
    return counter


DIMS, CORE = (20, 18, 16), (5, 4, 3)


def test_simcluster_hooi_runs_the_shared_kernels(calls):
    t = low_rank_tensor(DIMS, CORE, noise=0.05, seed=0)
    result = TuckerSession("simcluster", n_procs=4).run(t, CORE, max_iters=1)
    assert result.backend == "simcluster"
    for label in ("ttm", "gram", "norm", "factor"):
        assert calls[label] > 0, (label, dict(calls))


def test_simcluster_rsthosvd_runs_the_shared_kernels(calls):
    t = low_rank_tensor(DIMS, CORE, noise=0.05, seed=0)
    TuckerSession("simcluster", n_procs=4).run(
        t, CORE, method="rsthosvd", power_iters=1, skip_hooi=True, seed=1
    )
    for label in ("sketch", "xgram", "factor"):
        assert calls[label] > 0, (label, dict(calls))


def test_fro_norm_sq_reads_bricks_in_place():
    t = np.random.default_rng(0).standard_normal((128, 64, 64))  # 4 MiB
    dt = DistTensor.from_global(SimCluster(2), t, (2, 1, 1))
    brick = dt.block(0).nbytes
    assert brick >= 1 << 20
    assert traced_peak(dt.fro_norm_sq) < brick // 16
    assert dt.fro_norm_sq() == pytest.approx(float(np.sum(t * t)), rel=1e-12)

