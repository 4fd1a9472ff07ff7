"""The paper's plan-level suite: tensors, algorithm portfolio, modelled sweeps.

Everything here works from metadata — the benchmark tensors, the
tree/grid configurations the paper compares, load/volume/modelled-time
sweeps over them, and ASCII rendering — and never reads a wall clock.
The table/figure regeneration in ``benchmarks/test_*.py`` calls into
here; measured seconds are ``benchmarks/perf/``'s job
(``BENCHMARK.json``).
"""

from repro.bench.suite import (
    REAL_TENSORS,
    benchmark_metas,
    paper_subsample,
    real_tensor_meta,
)
from repro.bench.algorithms import ALGORITHMS, PAPER_HEURISTICS, make_planner
from repro.bench.runner import evaluate_algorithms, sweep, normalize_against
from repro.bench.report import ascii_table, format_curve

__all__ = [
    "REAL_TENSORS",
    "benchmark_metas",
    "paper_subsample",
    "real_tensor_meta",
    "ALGORITHMS",
    "PAPER_HEURISTICS",
    "make_planner",
    "evaluate_algorithms",
    "sweep",
    "normalize_against",
    "ascii_table",
    "format_curve",
]
