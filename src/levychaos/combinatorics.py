"""Index sets for iterated integrals: compositions, partitions, multinomials.

Tuples are plain ``tuple[int, ...]`` of positive integers.  All enumeration
orders are deterministic so serialized coefficient tables are byte-stable:
compositions sort by (sum, length, lexicographic), exact-sum compositions
lexicographically, partitions in descending lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import OrderError

# Largest order whose tuples the library lists: order 16 already walks
# 2^16 - 1 tuples (a rational coeffs takes about 1.4 s and 154 MB on a 2-CPU
# Xeon), and each +2 costs about 4x.  The level engine lists none and has no cap.
ORDER_LIMIT = 16

IndexTuple = tuple[int, ...]


def check_order(n: int) -> None:
    """Refuse an expansion order outside 1..ORDER_LIMIT, before any work."""
    if n < 1:
        raise OrderError("order must be >= 1")
    if n > ORDER_LIMIT:
        raise OrderError(f"order too large: {n} > cap {ORDER_LIMIT}")


def index_set(k: int) -> list[IndexTuple]:
    """All tuples of positive integers with sum <= k.

    Ordered by (sum, length, lexicographic); the count is exactly 2^k - 1.
    """
    check_order(k)
    # by_length[s][p]: the length-p compositions of s, lexicographic.  A first
    # part followed by the length-(p-1) compositions of the rest keeps that order.
    by_length = [[[()]]]
    for s in range(1, k + 1):
        by_length.append([[]] + [
            [(first,) + rest for first in range(1, s - p + 2) for rest in by_length[s - first][p - 1]]
            for p in range(1, s + 1)
        ])
    return [t for s in range(1, k + 1) for group in by_length[s] for t in group]


def exact_sum_compositions(n: int, p: int) -> list[IndexTuple]:
    """All length-``p`` tuples of positive integers summing exactly to ``n``.

    Returns an empty list when p > n (no compositions exist).
    """
    if n < 1 or p < 1:
        raise OrderError("n and p must be >= 1")
    if p > n:
        return []
    # Lexicographic successor, without recursion (p may be in the thousands):
    # the part before the last part above 1 (past the first) grows by one,
    # and the parts after it restart at (1, ..., 1, rest).
    cur = [1] * (p - 1) + [n - p + 1]
    out = [tuple(cur)]
    while True:
        j = next((k for k in range(p - 1, 0, -1) if cur[k] > 1), 0)
        if j == 0:
            return out
        cur[j - 1] += 1
        cur[j:] = [1] * (p - j - 1) + [cur[j] - 1]
        out.append(tuple(cur))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing parts of k plus the multiplicity vector p_1..p_k."""

    parts: IndexTuple
    multiplicities: tuple[int, ...]

    @staticmethod
    def from_parts(parts: Sequence[int], k: int) -> "Partition":
        parts = tuple(parts)
        if sum(parts) != k or any(x < 1 for x in parts):
            raise OrderError(f"not a partition of {k}: {parts}")
        if list(parts) != sorted(parts, reverse=True):
            raise OrderError(f"parts must be weakly decreasing: {parts}")
        mult = [0] * k
        for x in parts:
            mult[x - 1] += 1
        return Partition(parts, tuple(mult))

    @property
    def length(self) -> int:
        return len(self.parts)


def partitions(k: int) -> list[Partition]:
    """All integer partitions of k, descending lexicographic order."""
    if k < 1:
        raise OrderError("k must be >= 1")

    def gen(total: int, cap: int) -> Iterator[IndexTuple]:
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return [Partition.from_parts(p, k) for p in gen(k, k)]


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(parts!), exact arbitrary-precision integer."""
    parts = tuple(parts)
    if not parts:
        raise OrderError("multinomial of empty sequence")
    if any(x < 0 for x in parts):
        raise OrderError(f"negative multinomial part: {parts}")
    num = math.factorial(sum(parts))
    den = 1
    for x in parts:
        den *= math.factorial(x)
    return num // den
