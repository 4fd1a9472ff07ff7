"""Figures 10a / 10b — percentile plots of normalized overall HOOI time.

For every suite tensor, one HOOI invocation is modeled for the three prior
heuristics and (opt-tree, dynamic grid); times are normalized to the latter
(which becomes 1). The paper reports: opt wins on every tensor, gains
1.5x-7x, median 3.4x (5D) and 4.0x (6D).

Our measured shape (EXPERIMENTS.md records the exact numbers): opt-dynamic
wins on the overwhelming majority (>= 90%) of tensors — a handful of small,
tiny-core tensors where the flop-optimal tree is communication-hostile slip
under 1 — and the median gain lands in the paper's band.
"""

import numpy as np

from repro.bench.algorithms import PAPER_HEURISTICS
from repro.obs.percentiles import curve_summary, percentile_curve
from repro.bench.report import format_curve
from repro.bench.runner import normalize_against

BASELINE = "opt-dynamic"


def _check_and_print(records, title):
    norm = normalize_against(records, "total_s", BASELINE)
    curves = {}
    for name in PAPER_HEURISTICS + (BASELINE,):
        curves[name] = percentile_curve(norm[name])
    print()
    print(format_curve(curves, title=title))

    best_prior = [
        min(norm[a][i] for a in PAPER_HEURISTICS) for i in range(len(records))
    ]
    wins = sum(1 for v in best_prior if v >= 1.0)
    med = float(np.median(best_prior))
    mx = float(np.max(best_prior))
    print(
        f"opt-dynamic wins on {wins}/{len(records)} tensors "
        f"({100 * wins / len(records):.1f}%); median gain over best prior "
        f"{med:.2f}x, max {mx:.2f}x"
    )
    # paper shape: dominance on (essentially) all tensors, median gain in a
    # broad band around the reported 3.4x/4.0x, max gain in the several-x
    # range.
    assert wins / len(records) >= 0.90
    assert 1.5 <= med <= 8.0
    assert mx >= 4.0
    return med


def test_fig10a_overall_time_5d(benchmark, records5):
    med = benchmark.pedantic(
        _check_and_print,
        args=(records5, "Fig 10a: normalized overall time percentiles (5D)"),
        rounds=1,
        iterations=1,
    )
    assert med > 1.0


def test_fig10b_overall_time_6d(benchmark, records6):
    med = benchmark.pedantic(
        _check_and_print,
        args=(records6, "Fig 10b: normalized overall time percentiles (6D)"),
        rounds=1,
        iterations=1,
    )
    assert med > 1.0
