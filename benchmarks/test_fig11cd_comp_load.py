"""Figures 11c / 11d — normalized computational *load* (FLOP) percentiles.

The machine-independent metric: TTM-component multiply-adds per algorithm
normalized to the optimal tree. The paper reports reductions up to 2.8x (5D)
and 3.6x (6D) over the best prior heuristic, with 6D gains exceeding 5D
("opt-tree has more opportunities for careful placement and reuse").
"""

import numpy as np

from repro.bench.algorithms import PAPER_HEURISTICS
from repro.obs.percentiles import percentile_curve
from repro.bench.report import format_curve
from repro.bench.runner import normalize_against

BASELINE = "opt-static"  # load depends only on the tree


def _analyze(records, title):
    norm = normalize_against(records, "flops", BASELINE)
    curves = {
        name: percentile_curve(norm[name])
        for name in PAPER_HEURISTICS + (BASELINE,)
    }
    print()
    print(format_curve(curves, title=title))
    best_prior = [
        min(norm[a][i] for a in PAPER_HEURISTICS) for i in range(len(records))
    ]
    med = float(np.median(best_prior))
    mx = float(np.max(best_prior))
    print(f"gain over best prior heuristic: median {med:.2f}x, max {mx:.2f}x")
    # optimality: the DP can never lose on load (exact guarantee)
    for name in PAPER_HEURISTICS:
        assert min(norm[name]) >= 1.0 - 1e-12
    assert mx >= 1.8  # paper: up to 2.8x/3.6x; demand a substantial max gain
    return med


def test_fig11c_comp_load_5d(benchmark, records5):
    med5 = benchmark.pedantic(
        _analyze,
        args=(records5, "Fig 11c: normalized computational load (5D)"),
        rounds=1,
        iterations=1,
    )
    assert med5 >= 1.0


def test_fig11d_comp_load_6d(benchmark, records6, records5):
    med6 = benchmark.pedantic(
        _analyze,
        args=(records6, "Fig 11d: normalized computational load (6D)"),
        rounds=1,
        iterations=1,
    )
    # paper: improvements are higher for 6D than 5D
    norm5 = normalize_against(records5, "flops", BASELINE)
    best5 = [
        min(norm5[a][i] for a in PAPER_HEURISTICS)
        for i in range(len(records5))
    ]
    assert med6 >= float(np.median(best5)) * 0.95
