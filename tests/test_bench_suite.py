"""Tests for the benchmark tensor suite."""

import pytest

from repro.bench.suite import (
    CARDINALITY_CAP,
    PAPER_COUNTS,
    REAL_TENSORS,
    benchmark_metas,
    paper_subsample,
    real_tensor_meta,
)


class TestRealTensors:
    def test_table2_metadata_pinned(self):
        # exact values from Table 2 of the paper
        assert REAL_TENSORS["HCCI"].dims == (672, 672, 627, 16)
        assert REAL_TENSORS["HCCI"].core == (279, 279, 153, 14)
        assert REAL_TENSORS["TJLR"].dims == (460, 700, 360, 16, 4)
        assert REAL_TENSORS["TJLR"].core == (306, 232, 239, 16, 4)
        assert REAL_TENSORS["SP"].dims == (500, 500, 500, 11, 10)
        assert REAL_TENSORS["SP"].core == (81, 129, 127, 7, 6)

    def test_lookup_case_insensitive(self):
        assert real_tensor_meta("sp") is REAL_TENSORS["SP"]
        with pytest.raises(KeyError):
            real_tensor_meta("nope")


class TestEnumeration:
    def test_counts_are_pinned(self):
        # canonical multiset enumeration sizes (repro.bench.suite's counting note)
        assert len(benchmark_metas(5)) == 10312
        assert len(benchmark_metas(6)) == 7710

    def test_cap_enforced(self):
        for m in benchmark_metas(5)[:500]:
            assert m.cardinality <= CARDINALITY_CAP

    def test_parameters_from_recipe(self):
        lengths = {20, 50, 100, 400}
        for m in benchmark_metas(5)[:500]:
            assert set(m.dims) <= lengths
            for ell, k in zip(m.dims, m.core):
                assert ell / k in (1.25, 2.0, 5.0, 10.0)

    def test_ascending_canonical_orientation(self):
        for m in benchmark_metas(5)[:200]:
            pairs = list(zip(m.dims, m.core))
            assert pairs == sorted(pairs)

    def test_deterministic(self):
        a = benchmark_metas(6)
        b = benchmark_metas(6)
        assert a == b

    def test_no_duplicates(self):
        metas = benchmark_metas(5)
        assert len(set(metas)) == len(metas)

    def test_smaller_cap_shrinks(self):
        assert len(benchmark_metas(5, cardinality_cap=10**8)) < 10312


class TestPaperSubsample:
    def test_paper_sizes(self):
        assert len(paper_subsample(5)) == PAPER_COUNTS[5] == 1134
        assert len(paper_subsample(6)) == PAPER_COUNTS[6] == 642

    def test_subsample_is_subset_and_sorted_spread(self):
        full = benchmark_metas(5)
        sub = paper_subsample(5)
        full_set = set(full)
        assert all(m in full_set for m in sub)
        assert sub[0] == full[0] and sub[-1] == full[-1]

    def test_deterministic(self):
        assert paper_subsample(6) == paper_subsample(6)

    def test_custom_count(self):
        assert len(paper_subsample(5, count=10)) == 10
        with pytest.raises(ValueError):
            paper_subsample(5, count=100_000)

    def test_unknown_ndim_needs_count(self):
        with pytest.raises(ValueError, match="count"):
            paper_subsample(4)
