"""Tests for percentile curves."""

import numpy as np
import pytest

from repro.obs.percentiles import curve_summary, percentile_curve


class TestPercentileCurve:
    def test_known_quantiles(self):
        vals = list(range(101))  # 0..100
        curve = percentile_curve(vals)
        assert curve[0] == 0
        assert curve[50] == 50
        assert curve[100] == 100

    def test_interpretation_matches_paper(self):
        # "normalized time t at percentile k: for k% of tensors the value is
        # less than t" -- i.e. at most ~k% of values lie strictly below.
        vals = [1.0] * 60 + [4.7] * 40
        curve = percentile_curve(vals)
        assert curve[50] == 1.0
        assert curve[70] == 4.7

    def test_single_value(self):
        assert percentile_curve([2.5])[0] == 2.5
        assert percentile_curve([2.5])[100] == 2.5

    def test_inf_sorts_last(self):
        vals = [1.0, 2.0, float("inf")]
        curve = percentile_curve(vals, points=(0, 50, 100))
        assert curve[0] == 1.0
        assert curve[50] == 2.0
        assert curve[100] == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_curve([])

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile_curve([1.0], points=(101,))


class TestCurveSummary:
    def test_basic(self):
        s = curve_summary([1.0, 2.0, 3.0, 10.0])
        assert s["min"] == 1.0
        assert s["median"] == 2.5
        assert s["max"] == 10.0

    def test_ignores_inf_when_finite_exist(self):
        s = curve_summary([1.0, 3.0, float("inf")])
        assert s["max"] == 3.0


def _per_point_reference(values, points):
    """The pre-move implementation: one full sort per percentile point."""
    arr = np.asarray(list(values), dtype=np.float64)
    out = {}
    for p in points:
        idx = int(round(p / 100 * (arr.size - 1)))
        val = np.sort(arr)[min(idx, arr.size - 1)]
        out[p] = float(val) if np.isfinite(val) else float("inf")
    return out


class TestSortOnce:
    @pytest.mark.parametrize("size", [1, 2, 7, 100, 1001])
    def test_matches_per_point_sort(self, size):
        rng = np.random.default_rng(size)
        vals = rng.standard_normal(size)
        vals[rng.random(size) < 0.1] = np.inf
        points = (0, 3, 50, 90, 99, 100)
        # bit-identical, inf included
        assert percentile_curve(vals, points) == _per_point_reference(
            vals, points
        )

    def test_all_inf(self):
        vals = [float("inf")] * 3
        assert percentile_curve(vals, (0, 100)) == _per_point_reference(
            vals, (0, 100)
        )
