import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levychaos.combinatorics import (
    Partition,
    exact_sum_compositions,
    index_set,
    multinomial,
    partitions,
)
from levychaos.errors import OrderError


def brute_tuples(k):
    """Independent oracle: enumerate every tuple with entries in 1..k, sum <= k."""
    out = set()
    for j in range(1, k + 1):
        for tup in itertools.product(range(1, k + 1), repeat=j):
            if sum(tup) <= k:
                out.add(tup)
    return out


def test_index_set_k2_matches_displayed_list():
    assert index_set(2) == [(1,), (2,), (1, 1)]


def test_index_set_k3_distinct_orderings():
    s = index_set(3)
    assert len(s) == 7
    assert set(s) == {(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)}
    assert (1, 2) in s and (2, 1) in s


def test_index_set_k4_count_and_membership():
    s = index_set(4)
    assert len(s) == 15
    assert set(s) == brute_tuples(4)


@pytest.mark.parametrize("k", range(1, 13))
def test_index_set_counts(k):
    assert len(index_set(k)) == 2**k - 1


def test_index_set_deterministic_order():
    s = index_set(5)
    keys = [(sum(t), len(t), t) for t in s]
    assert keys == sorted(keys)


@pytest.mark.parametrize("k", range(1, 12))
def test_index_set_nesting(k):
    """index_set(k+1) restricted to sum <= k is exactly index_set(k)."""
    bigger = [t for t in index_set(k + 1) if sum(t) <= k]
    assert bigger == index_set(k)


def test_index_set_cap():
    with pytest.raises(OrderError, match="order too large: 17 > cap 16"):
        index_set(17)
    assert len(index_set(13)) == 2**13 - 1


def test_exact_sum_compositions_examples():
    assert exact_sum_compositions(3, 2) == [(1, 2), (2, 1)]
    assert exact_sum_compositions(4, 1) == [(4,)]
    assert exact_sum_compositions(5, 5) == [(1, 1, 1, 1, 1)]
    assert exact_sum_compositions(2, 3) == []


@pytest.mark.parametrize("k", range(1, 9))
def test_index_set_is_union_of_exact_sums(k):
    union = []
    for n in range(1, k + 1):
        for p in range(1, n + 1):
            union.extend(exact_sum_compositions(n, p))
    assert set(union) == set(index_set(k))
    assert len(union) == len(index_set(k))


def test_partitions_examples():
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions(4)) == 5


def test_partition_multiplicities():
    p = Partition.from_parts((2, 1), 3)
    assert p.multiplicities == (1, 1, 0)
    for k in range(1, 10):
        for part in partitions(k):
            recomputed = tuple(part.parts.count(r) for r in range(1, k + 1))
            assert recomputed == part.multiplicities
            assert sum(part.parts) == k


def test_partitions_counts_against_brute_force():
    # classical p(k) via distinct sorted compositions
    for k in range(1, 8):
        brute = {tuple(sorted(t, reverse=True)) for t in brute_tuples(k) if sum(t) == k}
        assert {p.parts for p in partitions(k)} == brute


def test_multinomial_examples():
    assert multinomial((1, 1, 2)) == 12
    assert multinomial((2, 1, 1)) == 12
    assert multinomial((7,)) == 1
    assert multinomial((0, 0)) == 1


def test_multinomial_is_exact_for_large_orders():
    # 12-part all-ones: 12! exactly, no float rounding
    assert multinomial((1,) * 12) == math.factorial(12)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
def test_multinomial_symmetric(parts):
    base = multinomial(parts)
    assert base == multinomial(sorted(parts))
    assert base == multinomial(sorted(parts, reverse=True))
    assert base * math.prod(math.factorial(x) for x in parts) == math.factorial(sum(parts))
