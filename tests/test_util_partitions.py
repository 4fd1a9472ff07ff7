"""Tests for repro.util.partitions: factorizations and mask iteration."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.partitions import (
    balanced_split,
    count_ordered_factorizations,
    divisors,
    iter_nonempty_proper_submasks,
    iter_submasks,
    multisets,
    ordered_factorizations,
    prime_factorization,
)


class TestPrimeFactorization:
    def test_small_known_values(self):
        assert prime_factorization(1) == {}
        assert prime_factorization(2) == {2: 1}
        assert prime_factorization(12) == {2: 2, 3: 1}
        assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}
        assert prime_factorization(97) == {97: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factorization(0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_reconstructs(self, n):
        factors = prime_factorization(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        for p in factors:
            # each listed prime is actually prime
            assert all(p % d for d in range(2, int(p**0.5) + 1))


class TestDivisors:
    def test_known(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

    @given(st.integers(min_value=1, max_value=5000))
    def test_all_divide_and_sorted(self, n):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(set(ds)) == len(ds)
        # completeness
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


class TestOrderedFactorizations:
    def test_table1_counts_power_of_two(self):
        # Table 1 of the paper, whose "562" at N=7 is a typo: C(11, 6) = 462.
        expect_p32 = {5: 126, 6: 252, 7: 462, 8: 792, 9: 1287, 10: 2002}
        for n, count in expect_p32.items():
            assert count_ordered_factorizations(32, n) == count
        expect_p1024 = {5: 1001, 6: 3003, 7: 8008, 8: 19448, 9: 43758, 10: 92378}
        for n, count in expect_p1024.items():
            assert count_ordered_factorizations(1024, n) == count

    def test_table1_counts_p_2_20(self):
        assert count_ordered_factorizations(2**20, 5) == 10626
        assert count_ordered_factorizations(2**20, 6) == 53130
        assert count_ordered_factorizations(2**20, 7) == 230230
        assert count_ordered_factorizations(2**20, 8) == 888030
        assert count_ordered_factorizations(2**20, 9) == 3108105
        assert count_ordered_factorizations(2**20, 10) == 10015005

    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=4),
    )
    def test_enumeration_matches_closed_form(self, p, n):
        grids = list(ordered_factorizations(p, n))
        assert len(grids) == count_ordered_factorizations(p, n)
        assert len(set(grids)) == len(grids)
        for g in grids:
            assert len(g) == n
            assert math.prod(g) == p

    def test_composite_prime_base(self):
        # 360 = 2^3 3^2 5: psi = C(3+2,2) C(2+2,2) C(1+2,2) = 10*6*3
        assert count_ordered_factorizations(360, 3) == 180
        assert len(list(ordered_factorizations(360, 3))) == 180

    def test_single_factor(self):
        assert list(ordered_factorizations(7, 1)) == [(7,)]

    def test_p_equals_one(self):
        assert list(ordered_factorizations(1, 3)) == [(1, 1, 1)]


class TestSubmasks:
    def test_full_enumeration(self):
        subs = list(iter_submasks(0b101))
        assert sorted(subs) == [0b000, 0b001, 0b100, 0b101]

    def test_zero_mask(self):
        assert list(iter_submasks(0)) == [0]

    def test_proper_nonempty(self):
        subs = list(iter_nonempty_proper_submasks(0b111))
        assert sorted(subs) == [0b001, 0b010, 0b011, 0b100, 0b101, 0b110]

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_count_is_2_to_popcount(self, mask):
        assert len(list(iter_submasks(mask))) == 2 ** mask.bit_count()

    @given(st.integers(min_value=1, max_value=2**10 - 1))
    def test_proper_excludes_bounds(self, mask):
        subs = list(iter_nonempty_proper_submasks(mask))
        assert 0 not in subs
        assert mask not in subs
        assert len(subs) == 2 ** mask.bit_count() - 2


class TestMisc:
    def test_multisets_count(self):
        # C(4 + 3 - 1, 3) = 20
        assert len(list(multisets([1, 2, 3, 4], 3))) == 20

    def test_balanced_split_floor_half(self):
        assert balanced_split([1, 2, 3, 4, 5]) == ([1, 2], [3, 4, 5])
        assert balanced_split([1]) == ([], [1])
        assert balanced_split([1, 2]) == ([1], [2])
