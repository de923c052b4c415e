"""Counting oracles for fixed-hook counts and their companion objects.

The fixed-hook counts and the hook census enumerate partitions and inspect
Young diagrams directly.  The census (:func:`hook_tally`) streams the cells
of each partition into Counters as key tuples: a cell (i, m) of a column
m <= max_m under (m, column length, i, part), a cell further right under its
hook alone.  Its four tables are derived once per n from the distinct keys,
and a per-cell loop in the tests is its reference.  The companion objects
of Theorems 11, 12 and 13 are counted by exact integer DPs over the allowed
part sizes: each object splits into blocks of part sizes chosen
independently, and each block is a bounded-part or gap-avoiding partition
count.  The enumerate-and-filter definitions of those objects live in the
tests as references.  The generating-function builders in
:mod:`fixedhooks.genfun` are verified coefficient-by-coefficient against
these oracles; nothing in this module touches q-series arithmetic.

A cell (i, m) of a partition is an *h-fixed hook in column m* when
``hook_length(i, m) == i + h``.  Because the hooks down a column strictly
decrease while ``i + h`` strictly increases, a column contains at most one
h-fixed hook for each h.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import add
from types import MappingProxyType
from typing import Mapping

from .partitions import (
    Family,
    Partition,
    conjugate_parts,
    enumerate_parts,
    enumerate_partitions,
    partition_count,
)


def count_fixed_by_part(n: int, m: int, h: int, k: int, family: Family = Family.ALL) -> int:
    """Pairs (partition of n, row i) with part size k and an h-fixed hook at (i, m).

    Requires k >= m, since a part smaller than m has no cell in column m.
    """
    if m < 1:
        raise ValueError("column index m must be >= 1")
    if k < m:
        raise ValueError(f"part size k={k} has no cell in column m={m}")
    total = 0
    for parts in enumerate_parts(n, family):
        conj = conjugate_parts(parts)
        cm = conj[m - 1] if m <= len(conj) else 0
        for i, part in enumerate(parts, start=1):
            if part == k and part + cm - i - m + 1 == i + h:
                total += 1
    return total


def count_fixed_by_hook(n: int, m: int, h: int, k: int, family: Family = Family.ALL) -> int:
    """Pairs (partition of n, row i) with an h-fixed hook of size k at (i, m).

    The row is forced to i = k - h; the count is 0 when k - h < 1.
    """
    if m < 1:
        raise ValueError("column index m must be >= 1")
    i = k - h
    if i < 1:
        return 0
    total = 0
    for parts in enumerate_parts(n, family):
        if len(parts) < i or parts[i - 1] < m:
            continue
        conj = conjugate_parts(parts)
        if parts[i - 1] + conj[m - 1] - i - m + 1 == k:
            total += 1
    return total


def count_hooks_of_size(
    n: int, k: int, m: int | None = None, family: Family = Family.ALL
) -> int:
    """Cells with hook length k in all partitions of n in the family.

    With ``m`` given, only cells in column m are counted; with ``m`` absent,
    cells in every column.
    """
    if k < 1:
        raise ValueError("hook size k must be >= 1")
    if m is not None and m < 1:
        raise ValueError("column index m must be >= 1")
    total = 0
    for parts in enumerate_parts(n, family):
        conj = conjugate_parts(parts)
        if m is not None:
            cm = conj[m - 1] if m <= len(conj) else 0
            for i in range(1, cm + 1):
                if parts[i - 1] + cm - i - m + 1 == k:
                    total += 1
        else:
            for i, part in enumerate(parts, start=1):
                for j in range(1, part + 1):
                    if part + conj[j - 1] - i - j + 1 == k:
                        total += 1
    return total


# ---------------------------------------------------------------------------
# Colored-partition oracles
# ---------------------------------------------------------------------------
#
# A two-colored partition is an ordinary partition (the first color) together
# with a second partition whose parts are capped at m - 1 (the second color).
# Only part sizes 1 .. m-1 may appear twice-colored; larger sizes exist in the
# first color alone.


def t11_qualifying_sizes(parts: tuple[int, ...], m: int) -> list[int]:
    """Sizes L such that L appears exactly L + m - 1 times in ``parts`` while
    none of L+1, ..., L+2m-2 appears."""
    mult = Counter(parts)
    out = []
    for L in sorted(mult):
        if mult[L] != L + m - 1:
            continue
        if any(mult.get(x, 0) for x in range(L + 1, L + 2 * m - 1)):
            continue
        out.append(L)
    return out


@lru_cache(maxsize=None)
def _partitions_avoiding(n: int, lo: int, hi: int) -> int:
    """Partitions of n with no part in lo .. hi: coin-change DP over the
    allowed part sizes.  0 for negative n."""
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for size in chain(range(1, min(lo, n + 1)), range(hi + 1, n + 1)):
        for x in range(size, n + 1):
            ways[x] += ways[x - size]
    return ways[n]


@lru_cache(maxsize=None)
def _t11_first_weight(a: int, m: int) -> int:
    """Sum over first-color partitions of a of their number of qualifying sizes.

    Removing the L + m - 1 copies of a qualifying L leaves a partition of
    a - L(L+m-1) with no part in L .. L+2m-2, and each such partition comes
    from exactly one object qualifying at L.
    """
    total = 0
    L = 1
    while L * (L + m - 1) <= a:
        total += _partitions_avoiding(a - L * (L + m - 1), L, L + 2 * m - 2)
        L += 1
    return total


def count_colored_thm11(n: int, m: int) -> int:
    """Sum over L of the two-colored partitions of n in which a part of size L
    occurs exactly L + m - 1 times in the first color with no first-color parts
    of sizes L+1 .. L+2m-2.

    An object is counted once per qualifying L.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for a in range(n + 1):
        w = _t11_first_weight(a, m)
        if w:
            total += w * partition_count(n - a, m - 1)
    return total


def colored_t11_witnesses(n: int, m: int) -> list[tuple[Partition, Partition, int]]:
    """The (first, second, L) triples behind :func:`count_colored_thm11`."""
    out = []
    for a in range(n, -1, -1):
        for first in enumerate_parts(a):
            sizes = t11_qualifying_sizes(first, m)
            if not sizes:
                continue
            for second in enumerate_parts(n - a, max_part=m - 1):
                for L in sizes:
                    out.append((Partition(first), Partition(second), L))
    return out


def _t13_first_count(a: int, m: int, k: int) -> int:
    """First-color partitions of a avoiding sizes k-m+1 .. k+m-1 and containing
    every size 1 .. k-m at least once.

    Removing one part of each size 1 .. k-m leaves a partition of
    a - (k-m)(k-m+1)/2 that only has to avoid k-m+1 .. k+m-1.
    """
    return _partitions_avoiding(a - (k - m) * (k - m + 1) // 2, k - m + 1, k + m - 1)


@lru_cache(maxsize=None)
def _distinct_exact(d: int, j: int, cap: int) -> int:
    """Partitions of d into exactly j distinct parts, each <= cap."""
    if j == 0:
        return 1 if d == 0 else 0
    if cap <= 0 or d < j * (j + 1) // 2:
        return 0
    return _distinct_exact(d, j, cap - 1) + _distinct_exact(d - cap, j - 1, cap - 1)


def count_colored_thm13(nprime: int, m: int, k: int, h: int = 0, variant: str = "stated") -> int:
    """Colored companions of the h-fixed hooks from parts of size k in column m.

    ``variant="stated"`` counts two-colored partitions of ``nprime`` whose
    first color avoids part sizes k-m+1 .. k+m-1 and contains every size
    1 .. k-m at least once; ``h`` does not restrict these objects.  That
    description only tracks the fixed-hook count at h = 0.

    ``variant="derived"`` counts the h-aware configurations the summands
    actually decompose into: exactly u first-color parts of size >= k+m
    (u ranging over max(0, k-m-h), ...), together with k-m distinct extra
    parts of sizes in [1, u+h], plus free second-color parts <= m-1, at
    weight ``nprime + (k-m-h)(k+m)``.  At h = 0 both variants agree.

    Returns 0 for negative ``nprime``.
    """
    if m < 1 or k < m:
        raise ValueError("need k >= m >= 1")
    if nprime < 0:
        return 0
    if variant == "stated":
        return sum(
            _t13_first_count(a, m, k) * partition_count(nprime - a, m - 1)
            for a in range(nprime + 1)
        )
    if variant != "derived":
        raise ValueError(f"unknown variant {variant!r}")
    weight = nprime + (k - m - h) * (k + m)
    if weight < 0:
        return 0
    total = 0
    u = max(0, k - m - h)
    while u * (k + m) <= weight:
        rem0 = weight - u * (k + m)
        for d in range(rem0 + 1):
            ways = _distinct_exact(d, k - m, u + h)
            if not ways:
                continue
            rem = rem0 - d
            pads = sum(
                partition_count(b, u) * partition_count(rem - b, m - 1)
                for b in range(rem + 1)
            )
            total += ways * pads
        u += 1
    return total


@lru_cache(maxsize=None)
def _t12_profile(t: int, m: int) -> tuple[tuple[int, int], ...]:
    """For partitions of t with exactly one part m and no parts strictly
    between m and 2m: how many have g parts of size >= 2m, per g (nonzero
    counts only, g ascending).

    Such a partition is the part m, parts < m of total x, and exactly g
    parts >= 2m of total t - m - x.  Less 2m - 1 from each, those g parts
    are a partition of t - m - x - (2m-1)g into exactly g parts, and by
    conjugation there are ``partition_count(t - m - x - 2mg, g)`` of them.
    """
    out = []
    g = 0
    while m + 2 * m * g <= t:
        rest = t - m - 2 * m * g
        count = sum(
            partition_count(x, m - 1) * partition_count(rest - x, g) for x in range(rest + 1)
        )
        if count:
            out.append((g, count))
        g += 1
    return tuple(out)


def count_restricted_thm12(n: int, m: int, h: int) -> int:
    """Partitions of n - m*h in which m appears exactly once, no part lies in
    m+1 .. 2m-1, and at least -h parts are >= 2m (vacuous for h >= 0).

    Returns 0 when n - m*h < 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    t = n - m * h
    if t < 0:
        return 0
    need = max(0, -h)
    return sum(c for g, c in _t12_profile(t, m) if g >= need)


# ---------------------------------------------------------------------------
# Batched census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HookTally:
    """One-pass census of hook statistics over all partitions of n <= max_n.

    ``by_part[(n, m, k, h)]`` counts cells (i, m) with part size k and
    fixedness h = hook - i, for columns m <= max_m; ``by_hook`` keys on the
    hook size instead.  ``hooks_col[(n, m, k)]`` counts hooks of size k in
    column m <= max_m, and ``hooks_total[(n, k)]`` in all columns.  The
    census is cached and shared, so the four tables are read-only views.

    A cell (i, m) in a column m <= max_m is counted once per n under the key
    (m, c, i, part), with c the length of column m; that key fixes its hook
    part - m + c - i + 1, so all four tables are derived from the distinct
    keys of each n.  A cell right of column max_m is counted by its hook
    alone, for ``hooks_total``.
    """

    max_n: int
    family: Family
    max_m: int
    by_part: Mapping[tuple[int, int, int, int], int]
    by_hook: Mapping[tuple[int, int, int, int], int]
    hooks_col: Mapping[tuple[int, int, int], int]
    hooks_total: Mapping[tuple[int, int], int]


@lru_cache(maxsize=None)
def hook_tally(max_n: int, family: Family = Family.ALL, max_m: int = 6) -> HookTally:
    """Census every partition of every n <= max_n once; see :class:`HookTally`.

    No Python statement runs per cell: each partition's keys are streamed
    into the Counters by one ``update`` per Counter.  Raises ValueError when
    max_m < 1, since a negative max_m would slice the conjugate from its end.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    by_part, by_hook, hooks_col, hooks_total = Counter(), Counter(), Counter(), Counter()
    columns = range(1, max_m + 1)
    for n in range(max_n + 1):
        cols, wide = Counter(), Counter()
        for parts in enumerate_parts(n, family):
            conj = conjugate_parts(parts)
            # Column m holds rows 1 .. c, the first c parts.
            cols.update(chain.from_iterable(
                zip(repeat(m), repeat(c), range(1, c + 1), parts) for m, c in zip(columns, conj)
            ))
            if len(conj) > max_m:
                # Row i right of column max_m: hook = conj[j-1] + part - i - j + 1.
                wide.update(chain.from_iterable(
                    map(add, conj[max_m:part], range(part - i - max_m, -i, -1))
                    for i, part in enumerate(parts[: conj[max_m]], start=1)
                ))
        for (m, c, i, part), count in cols.items():
            hook = part - m + c - i + 1
            h = hook - i
            by_part[(n, m, part, h)] += count
            by_hook[(n, m, hook, h)] += count
            hooks_col[(n, m, hook)] += count
            hooks_total[(n, hook)] += count
        hooks_total.update({(n, hook): count for hook, count in wide.items()})
    return HookTally(max_n, family, max_m, MappingProxyType(by_part), MappingProxyType(by_hook),
                     MappingProxyType(hooks_col), MappingProxyType(hooks_total))


def fixed_hook_witnesses(
    n: int,
    m: int,
    h: int,
    k: int | None = None,
    family: Family = Family.ALL,
    by: str = "hook",
) -> list[Partition]:
    """Partitions of n owning an h-fixed hook in column m, in enumeration order.

    With ``k`` given, only hooks of size k (``by="hook"``) or hooks arising
    from parts of size k (``by="part"``) qualify.  Since a column carries at
    most one h-fixed hook, each partition appears at most once.
    """
    out = []
    for lam in enumerate_partitions(n, family):
        conj = lam.conj_parts()
        cm = conj[m - 1] if m <= len(conj) else 0
        for i in range(1, cm + 1):
            hook = lam.parts[i - 1] + cm - i - m + 1
            if hook != i + h:
                continue
            if k is not None:
                size = hook if by == "hook" else lam.parts[i - 1]
                if size != k:
                    continue
            out.append(lam)
            break
    return out
