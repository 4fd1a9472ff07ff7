"""Integer combinatorics used by the grid enumerator and the tree DP.

The planner needs two enumeration primitives:

* all ways to write the processor count ``P`` as an *ordered* product of
  ``N`` factors (Cartesian grids, paper section 4.2), together with the
  closed-form count ``psi(P, N)``;
* iteration over submasks of a bitmask (the ``Q -> (Q1, Q2)`` splits of the
  optimal-tree dynamic program, paper section 3.3).

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from itertools import combinations_with_replacement


def prime_factorization(n: int) -> dict[int, int]:
    """Return the prime factorization of ``n`` as ``{prime: exponent}``.

    Trial division; ``n`` here is a processor count (at most a few million in
    any realistic planning call), so this is never a bottleneck.

    >>> prime_factorization(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """Return all positive divisors of ``n`` in increasing order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def count_ordered_factorizations(p: int, n: int) -> int:
    """Closed-form ``psi(P, N)``: ordered factorizations of ``p`` into ``n`` factors.

    With prime factorization ``p = prod p_i^{e_i}`` each prime's exponent is
    distributed independently over the ``n`` positions (stars and bars):

    ``psi(P, N) = prod_i C(e_i + N - 1, N - 1)``   (paper section 4.2).

    >>> count_ordered_factorizations(32, 5)
    126
    >>> count_ordered_factorizations(32, 7)
    462
    """
    check = count_ordered_factorizations
    del check  # no recursion; placate linters about unused names
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    result = 1
    for exponent in prime_factorization(p).values() if p > 1 else ():
        result *= math.comb(exponent + n - 1, n - 1)
    return result


def _exponent_splits(e: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield all n-tuples of non-negative ints summing to ``e``."""
    if n == 1:
        yield (e,)
        return
    for head in range(e + 1):
        for rest in _exponent_splits(e - head, n - 1):
            yield (head,) + rest


@functools.cache
def ordered_factorizations(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every ordered factorization of ``p`` into ``n`` positive factors.

    The factorizations are exactly the candidate processor grids for ``p``
    ranks and an ``n``-dimensional tensor. The order is deterministic
    (lexicographic in per-prime exponent splits). The result depends only
    on ``(p, n)``, so it is computed once per pair and shared.

    >>> sorted(ordered_factorizations(4, 2))
    [(1, 4), (2, 2), (4, 1)]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    grids = [(1,) * n]
    for prime, exponent in prime_factorization(p).items():
        grids = [
            tuple(a * prime**s for a, s in zip(acc, split))
            for acc in grids
            for split in _exponent_splits(exponent, n)
        ]
    return tuple(grids)


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and ``mask`` itself).

    Uses the standard ``sub = (sub - 1) & mask`` walk, descending order.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_nonempty_proper_submasks(mask: int) -> Iterator[int]:
    """Yield submasks ``s`` of ``mask`` with ``0 < s < mask``.

    These are the candidate ``Q1`` sets when splitting ``Q`` in the
    optimal-tree DP. Each unordered split ``{Q1, Q2}`` appears twice (once as
    ``s``, once as ``mask ^ s``); callers that want each split once can keep
    only ``s < mask ^ s``.
    """
    sub = (mask - 1) & mask
    while sub > 0:
        yield sub
        sub = (sub - 1) & mask


def multisets(values: Sequence, k: int) -> Iterator[tuple]:
    """Yield all size-``k`` multisets (as sorted-by-input-order tuples)."""
    yield from combinations_with_replacement(values, k)


def balanced_split(items: Sequence) -> tuple[list, list]:
    """Split a sequence into halves ``(first floor(n/2), rest)``.

    This is the divide step of the Kaya-Ucar balanced tree construction
    (paper section 3.2: ``m = floor(N/2)``).
    """
    m = len(items) // 2
    return list(items[:m]), list(items[m:])
