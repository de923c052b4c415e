"""Counting oracles for fixed-hook counts and their companion objects.

Every hook count reads one counter (:func:`_cells`), which counts the
partitions that own each cell by decomposition instead of listing them: a
cell splits its partition into the rows above it, the rows below it in its
column and the parts left of that column, three blocks chosen
independently, and each block is a table of partitions into exactly j parts.
The verifier reads the cached :func:`hook_tally` of every n <= max_n, the
point counts an uncached tally of the columns they ask about.  The second
formula is :func:`fixed_hook_witnesses`, a walk down each partition's
:meth:`Partition.column_hooks`; the tests hold every count equal to the
length of its witness list, and the tally equal to a per-cell loop over
every partition.
The companion objects of Theorems 11, 12 and 13 are counted as rows of
block products: each object splits into blocks of part sizes chosen
independently (sizes avoided in a gap, a run of sizes all present, free
second-color parts), and each oracle builds the count of every n up to a
bound at once, as one coin change over the sizes its blocks admit or a
product with the census's exactly-j-parts table.  The point counts read
their row at n; the verifier reads one row per case.  The
enumerate-and-filter definitions of those objects live in the tests as
references.  The generating-function builders in
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
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import (
    Family,
    Partition,
    enumerate_parts,
    enumerate_partitions,
    require_column,
    require_hook_size,
)


# ---------------------------------------------------------------------------
# Companion objects as rows of block products
# ---------------------------------------------------------------------------
#
# A two-colored partition is an ordinary partition (the first color) together
# with a second partition whose parts are capped at m - 1 (the second color).
# Only part sizes 1 .. m-1 may appear twice-colored; larger sizes exist in the
# first color alone.  Every companion object splits into blocks of part sizes
# chosen independently, so each oracle builds one row, the count of every
# n <= max_n, as a product of block rows: a coin change over the sizes a
# block admits (:func:`_row`, a size listed twice coming in two colors), or
# the census's exactly-j-parts table (:func:`_exact_parts`).


def _row(max_n: int, sizes: Iterable[int], ways: list[int] | None = None) -> list[int]:
    """Partitions of each x <= max_n into parts from ``sizes``, or, with
    ``ways`` given, that series times theirs, computed in ``ways`` in place."""
    if ways is None:
        ways = [1] + [0] * max_n
    for size in sizes:
        for x in range(size, max_n + 1):
            ways[x] += ways[x - size]
    return ways


def _shift(row: list[int], by: int, size: int) -> list[int]:
    """The first ``size`` coefficients of q^by times the series ``row``."""
    return [row[n - by] if 0 <= n - by < len(row) else 0 for n in range(size)]


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


def colored_t11_row(max_n: int, m: int) -> list[int]:
    """:func:`count_colored_thm11` of every n <= max_n.

    Removing the L + m - 1 copies of a qualifying L leaves a first color
    with no part in L .. L+2m-2, and each such object comes from exactly one
    object qualifying at L: the row is the sum over L of q^{L(L+m-1)} times
    the partitions avoiding L .. L+2m-2 times the second color.
    """
    require_column(m)
    total = [0] * (max_n + 1)
    L = 1
    while (low := L * (L + m - 1)) <= max_n:
        top = max_n - low
        sizes = chain(range(1, L), range(L + 2 * m - 1, top + 1), range(1, m))
        for n, ways in enumerate(_row(top, sizes), start=low):
            total[n] += ways
        L += 1
    return total


def count_colored_thm11(n: int, m: int) -> int:
    """Sum over L of the two-colored partitions of n in which a part of size L
    occurs exactly L + m - 1 times in the first color with no first-color parts
    of sizes L+1 .. L+2m-2.

    An object is counted once per qualifying L.
    """
    row = colored_t11_row(n, m)
    return row[n] if n >= 0 else 0


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


def colored_t13_row(
    max_n: int, m: int, k: int, h: int = 0, variant: str = "stated"
) -> list[int]:
    """:func:`count_colored_thm13` of every n' <= max_n.

    ``stated``: removing one part of each size 1 .. k-m leaves a first color
    that only avoids k-m+1 .. k+m-1, so the row is q^{C(k-m+1, 2)} times
    those partitions times the second color.  ``derived``: for each u, the
    u big parts less k+m each are a partition into parts <= u (by
    conjugation), so the objects are q^{u(k+m)} times k-m distinct parts
    <= u + h times the parts <= u and the second color.
    """
    require_column(m, k)
    if variant == "stated":
        low = (k - m) * (k - m + 1) // 2
        top = max_n - low
        sizes = chain(range(1, k - m + 1), range(k + m, top + 1), range(1, m))
        return _shift(_row(top, sizes), low, max_n + 1)
    if variant != "derived":
        raise ValueError(f"unknown variant {variant!r}")
    lift = (k - m - h) * (k + m)  # objects of n' weigh n' + lift
    top = max_n + lift
    u = max(0, k - m - h)
    rest = top - u * (k + m)  # the most the distinct and free parts can weigh
    total = [0] * (top + 1)
    # distinct[j][d]: partitions of d into exactly j distinct parts <= cap.
    # Parts above rem never fit, and the cap u + h only grows with u, so one
    # stream of the census's table serves every u.
    tables = _exact_parts(rest, 1, distinct=True, max_parts=k - m)
    distinct, cap = next(tables), 0
    while (low := u * (k + m)) <= top:
        rem = top - low
        while cap < min(u + h, rem):
            distinct, cap = next(tables), cap + 1
        if k - m < len(distinct):
            free = chain(range(1, u + 1), range(1, m))
            for w, ways in enumerate(_row(rem, free, distinct[k - m][: rem + 1]), start=low):
                total[w] += ways
        u += 1
    return _shift(total, -lift, max_n + 1)


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
    row = colored_t13_row(nprime, m, k, h, variant)
    return row[nprime] if nprime >= 0 else 0


def restricted_t12_row(max_n: int, m: int, h: int) -> list[int]:
    """:func:`count_restricted_thm12` of every n <= max_n.

    Beside its one part m, an object is parts < m and parts >= 2m, at least
    -h of them: all partitions into parts >= 2m less those with exactly
    g < -h parts.  Less 2m from each, those g parts are a partition into at
    most g parts, so by conjugation one into parts <= g.
    """
    require_column(m)
    top = max_n - m * (h + 1)  # the most the parts beside m can weigh
    big = _row(top, range(2 * m, top + 1))
    at_most = _row(top, ())  # partitions into parts <= g, from g = 0
    for g in range(-h):
        for y in range(2 * m * g, top + 1):
            big[y] -= at_most[y - 2 * m * g]
        _row(top, (g + 1,), at_most)
    return _shift(_row(top, range(1, m), big), m * (h + 1), max_n + 1)


def count_restricted_thm12(n: int, m: int, h: int) -> int:
    """Partitions of n - m*h in which m appears exactly once, no part lies in
    m+1 .. 2m-1, and at least -h parts are >= 2m (vacuous for h >= 0).

    Returns 0 when n - m*h < 0.
    """
    row = restricted_t12_row(n, m, h)
    return row[n] if n >= 0 else 0


# ---------------------------------------------------------------------------
# Hook census by cell decomposition
# ---------------------------------------------------------------------------
#
# A cell (i, m) whose row has part k, in a column of length c = i + l,
# splits its partition into three blocks that are chosen independently:
# the i - 1 rows above are parts >= k, the l rows below are parts in
# [m, k], and every other row is a part < m.  In a distinct family the rows
# above are distinct parts > k, those below distinct parts in [m, k - 1]
# and the rest distinct parts < m; in an odd family every block takes odd
# parts only.  Less a constant from each part, every block is a partition
# into exactly j parts from the family's sizes 1, 1 + step, 1 + 2 step, ...
# up to a cap, so one table of those counts serves all three.


def _exact_parts(
    max_n: int, step: int, distinct: bool, max_parts: int | None = None
) -> Iterator[list[list[int]]]:
    """Yield ``rows``, with ``rows[j][x]`` the number of ways to write x <= max_n
    as exactly j parts from the sizes admitted so far: first none, then one
    more of 1, 1 + step, ... <= max_n at each yield.  Parts repeat unless
    ``distinct``.  Rows stop at j = ``max_parts`` when it is given.  The
    table is updated in place between yields.
    """
    last = max_n if max_parts is None else min(max_parts, max_n)
    rows = [[1] + [0] * max_n]
    if not distinct:
        rows += [[0] * (max_n + 1) for _ in range(last)]
    yield rows
    for size in range(1, max_n + 1, step):
        if distinct and len(rows) <= last:
            rows.append([0] * (max_n + 1))
        # A repeated size may already sit in rows[j - 1]; a distinct one may not.
        js = range(len(rows) - 1, 0, -1) if distinct else range(1, len(rows))
        for j in js:
            row, fewer = rows[j], rows[j - 1]
            for x in range(size, max_n + 1):
                row[x] += fewer[x - size]
        yield rows


def _product(a: list[int], b: list[int], size: int) -> list[int]:
    """The first ``size`` coefficients of the product of two series."""
    out = [0] * size
    lo = next((y for y, by in enumerate(b[:size]) if by), size)
    tail = b[lo:]
    for x, ax in enumerate(a[: size - lo]):
        if ax:
            for y, by in enumerate(tail[: size - lo - x], start=x + lo):
                out[y] += ax * by
    return out


def _cells(
    max_n: int, family: Family, columns: Sequence[int]
) -> Iterator[tuple[int, int, int, int, int, list[int]]]:
    """Yield ``(m, c, i, k, low, counts)`` for the cells of the given columns:
    ``counts[n - low]`` partitions of n <= max_n in the family have column m of
    length c and part k in row i.  Each (m, c, i, k) is yielded once.

    Raises ValueError when max_n < 0 or the family is unknown.
    """
    if max_n < 0:
        raise ValueError("n must be non-negative")
    family = Family(family)
    step = 2 if family in (Family.ODD, Family.ODD_DISTINCT) else 1
    distinct = family in (Family.DISTINCT, Family.ODD_DISTINCT)
    gap = step if distinct else 0  # the rows above are parts >= k + gap
    # rests[t]: partitions into the first t sizes; full: every size <= max_n.
    rests = []
    for full in _exact_parts(max_n, step, distinct):
        rests.append(list(map(sum, zip(*full))))
    # Less m0 - 1 from each, the rows under a cell in column m, whose smallest
    # admissible part is m0, take the first t sizes when the cell's part k is
    # t - 1 steps above m0 (t steps if distinct, since they stay below k).
    for t, below in enumerate(_exact_parts(max_n, step, distinct)):
        for m in columns:
            m0 = m + (m - 1) % step
            k = m0 + (t - 1 + distinct) * step
            if k < m0 or k > max_n:
                continue
            rest = rests[(m0 - 1) // step]
            for l, below_l in enumerate(below):
                if k + l * m0 > max_n:
                    break
                low_l = k + l * (m0 - 1)
                lower = _product(below_l, rest, max_n - low_l + 1)
                for j, above_j in enumerate(full):
                    if k + j * (k + gap) + l * m0 > max_n:
                        break
                    low = low_l + j * (k - 1 + gap)
                    yield m, j + 1 + l, j + 1, k, low, _product(above_j, lower, max_n - low + 1)


@dataclass(frozen=True)
class HookTally:
    """Hook statistics over the partitions of every n <= max_n in a family.

    ``by_part[(n, m, k, h)]`` counts cells (i, m) with part size k and
    fixedness h = hook - i, for columns m <= max_m; ``by_hook`` keys on the
    hook size instead.  ``hooks_col[(n, m, k)]`` counts hooks of size k in
    column m <= max_m, and ``hooks_total[(n, k)]`` in all columns.  The
    tally is cached and shared, so the four tables are read-only views.

    The cells are counted by decomposition (:func:`_cells`), never by
    listing partitions: for each key (m, c, i, part), with c the length of
    column m, one series gives the number of partitions of each n that have
    such a cell.  That key fixes the hook part - m + c - i + 1, so all four
    tables are derived from the keys of every column m <= max_n.
    """

    max_n: int
    family: Family
    max_m: int
    by_part: Mapping[tuple[int, int, int, int], int]
    by_hook: Mapping[tuple[int, int, int, int], int]
    hooks_col: Mapping[tuple[int, int, int], int]
    hooks_total: Mapping[tuple[int, int], int]


def _tables(
    max_n: int, family: Family, max_m: int, columns: Sequence[int]
) -> tuple[Counter, Counter, Counter, Counter]:
    """``by_part``, ``by_hook``, ``hooks_col`` and ``hooks_total`` of
    :class:`HookTally`, with ``hooks_total`` summed over ``columns`` only."""
    by_part, by_hook, hooks_col, hooks_total = Counter(), Counter(), Counter(), Counter()
    for m, c, i, part, low, counts in _cells(max_n, family, columns):
        hook = part - m + c - i + 1
        h = hook - i
        for n, count in enumerate(counts, start=low):
            if count:
                hooks_total[(n, hook)] += count
                if m <= max_m:
                    by_part[(n, m, part, h)] += count
                    by_hook[(n, m, hook, h)] += count
                    hooks_col[(n, m, hook)] += count
    return by_part, by_hook, hooks_col, hooks_total


@lru_cache(maxsize=None)
def hook_tally(max_n: int, family: Family = Family.ALL, max_m: int = 6) -> HookTally:
    """The tally of every n <= max_n, cached and shared by every caller.

    Raises ValueError when max_m < 1 or max_n < 0.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    tables = _tables(max_n, family, max_m, range(1, max_n + 1))
    return HookTally(max_n, family, max_m, *map(MappingProxyType, tables))


def _require_query(m: int, k: int | None, by: str) -> None:
    """Reject a fixed-hook query with a bad column, part size or ``by``."""
    if by not in ("hook", "part"):
        raise ValueError(f"by must be 'hook' or 'part', got {by!r}")
    require_column(m, k if by == "part" else None)
    if by == "hook" and k is not None:
        require_hook_size(k)


def count_fixed_hooks(
    n: int, m: int, h: int, k: int | None = None, family: Family = Family.ALL, by: str = "hook"
) -> int:
    """Pairs (partition of n, row i) with an h-fixed hook at (i, m).

    With ``k`` given, only hooks of size k (``by="hook"``) or hooks arising
    from parts of size k (``by="part"``, which requires k >= m) count;
    ``k=None`` counts every size.  Since a column carries at most one
    h-fixed hook, this is the number of :func:`fixed_hook_witnesses`.
    """
    _require_query(m, k, by)
    by_part, by_hook, _, _ = _tables(n, family, m, (m,))
    table = by_hook if by == "hook" else by_part
    if k is not None:
        return table.get((n, m, k, h), 0)
    return sum(count for (nn, _, _, hh), count in table.items() if nn == n and hh == h)


def count_hooks_of_size(
    n: int, k: int, m: int | None = None, family: Family = Family.ALL
) -> int:
    """Cells with hook length k in all partitions of n in the family.

    With ``m`` given, only cells in column m are counted; with ``m`` absent,
    cells in every column.
    """
    require_hook_size(k)
    if m is None:
        return _tables(n, family, 0, range(1, n + 1))[3].get((n, k), 0)
    require_column(m)
    return _tables(n, family, m, (m,))[2].get((n, m, k), 0)


def fixed_hook_witnesses(
    n: int,
    m: int,
    h: int,
    k: int | None = None,
    family: Family = Family.ALL,
    by: str = "hook",
) -> list[Partition]:
    """Partitions of n owning an h-fixed hook in column m, in enumeration order.

    Takes the arguments of :func:`count_fixed_hooks`.  Since a column
    carries at most one h-fixed hook, each partition appears at most once.
    """
    _require_query(m, k, by)
    out = []
    for lam in enumerate_partitions(n, family):
        for i, hook in enumerate(lam.column_hooks(m), start=1):
            if hook == i + h:
                if k is None or k == (hook if by == "hook" else lam.parts[i - 1]):
                    out.append(lam)
                break
    return out
