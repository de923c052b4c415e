"""Counting oracles for fixed-hook counts and their companion objects.

Every hook count reads one counter (:func:`_cells`), which counts the
partitions that own each cell by decomposition instead of listing them: a
cell splits its partition into the rows above it, the rows below it in its
column and the parts left of that column, three blocks chosen
independently, and each block is a table of partitions into exactly j parts.
Each series of counts is packed into one integer, the count of n in slot n
(Kronecker substitution), so a block product is one integer product and a
table entry a sum of integers.  The verifier reads the cached
:func:`hook_tally` of every n <= max_n, whose tables unpack the row of
counts a case asks for, and the point counts an uncached tally of the
columns they ask about.  The second
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

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import (
    Family,
    Partition,
    enumerate_parts,
    enumerate_partitions,
    partition_count,
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
    # Slot d of distinct[j]: partitions of d into exactly j distinct parts
    # <= cap.  Parts above rem never fit, and the cap u + h only grows with
    # u, so one stream of the census's table serves every u.  By conjugation
    # no slot exceeds the partitions of rest into parts <= k - m.
    width = _slot_width(partition_count(rest, k - m))
    tables = _exact_parts(rest, 1, True, width, max_parts=k - m)
    distinct, cap = next(tables), 0
    while (low := u * (k + m)) <= top:
        rem = top - low
        while cap < min(u + h, rem):
            distinct, cap = next(tables), cap + 1
        if k - m < len(distinct):
            free = chain(range(1, u + 1), range(1, m))
            ways = list(_unpack(distinct[k - m], width, rest + 1)[: rem + 1])
            for w, count in enumerate(_row(rem, free, ways), start=low):
                total[w] += count
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


def _slot_width(bound: int) -> int:
    """Bits per slot of a packed row of counts <= ``bound``: the least
    multiple of 8 with 2**width > bound."""
    return max(8, -(-bound.bit_length() // 8) * 8)


def _unpack(packed: int, width: int, slots: int) -> tuple[int, ...]:
    """The first ``slots`` slots of a packed row; raises OverflowError when
    a higher slot is not zero."""
    size = width // 8
    data = packed.to_bytes(slots * size, "little")
    return tuple(int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))


def _exact_parts(
    max_n: int, step: int, distinct: bool, width: int, max_parts: int | None = None
) -> Iterator[list[int]]:
    """Yield ``rows``, with slot x of the packed row ``rows[j]`` (bits
    x * width onwards) the number of ways to write x <= max_n as exactly j
    parts from the sizes admitted so far: first none, then one more of 1,
    1 + step, ... <= max_n at each yield.  Parts repeat unless ``distinct``.
    Rows stop at j = ``max_parts`` when it is given.  The table is updated
    in place between yields.
    """
    mask = (1 << max(0, max_n + 1) * width) - 1
    last = max_n if max_parts is None else min(max_parts, max_n)
    rows = [1] if distinct else [1] + [0] * last
    yield rows
    for size in range(1, max_n + 1, step):
        if distinct and len(rows) <= last:
            rows.append(0)
        # A repeated size may already sit in rows[j - 1]; a distinct one may not.
        js = range(len(rows) - 1, 0, -1) if distinct else range(1, len(rows))
        for j in js:
            rows[j] += (rows[j - 1] << size * width) & mask
        yield rows


def _cells(
    max_n: int, family: Family, columns: Sequence[int], width: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(m, c, i, k, counts)`` for the cells of the given columns:
    slot n of the packed row ``counts`` holds the number of partitions of
    n <= max_n in the family that have column m of length c and part k in
    row i.  Each (m, c, i, k) is yielded once.

    A block product is one integer product, its factors and the result
    masked to the slots that a shift by the cell's least weight keeps at or
    below max_n.  Packing evaluates a series at 2**width and a mask of s
    slots reduces modulo 2**(s * width), both ring homomorphisms, so the
    slots of a product or a sum are exact wherever the true counts fit in
    a slot.

    Raises ValueError when max_n < 0 or the family is unknown.
    """
    if max_n < 0:
        raise ValueError("n must be non-negative")
    family = Family(family)
    step = 2 if family in (Family.ODD, Family.ODD_DISTINCT) else 1
    distinct = family in (Family.DISTINCT, Family.ODD_DISTINCT)
    gap = step if distinct else 0  # the rows above are parts >= k + gap
    masks = [(1 << slots * width) - 1 for slots in range(max_n + 2)]
    # rests[t]: partitions into the first t sizes; full: every size <= max_n.
    rests = []
    for full in _exact_parts(max_n, step, distinct, width):
        rests.append(sum(full))
    # Row j is zero below slot j: less 1 more from each part, it starts at 0.
    full = [row >> j * width for j, row in enumerate(full)]
    # Less m0 - 1 from each, the rows under a cell in column m, whose smallest
    # admissible part is m0, take the first t sizes when the cell's part k is
    # t - 1 steps above m0 (t steps if distinct, since they stay below k).
    for t, below in enumerate(_exact_parts(max_n, step, distinct, width)):
        for m in columns:
            m0 = m + (m - 1) % step
            k = m0 + (t - 1 + distinct) * step
            if k < m0 or k > max_n:
                continue
            rest = rests[(m0 - 1) // step]
            for l, below_l in enumerate(below):
                low_l = k + l * m0  # the least weight of the cell's row and those below
                if low_l > max_n:
                    break
                lower = (below_l >> l * width) * rest & masks[max_n - low_l + 1]
                for j, above_j in enumerate(full):
                    low = low_l + j * (k + gap)  # the least weight of the partitions
                    if low > max_n:
                        break
                    fit = masks[max_n - low + 1]  # the slots still <= max_n after the shift
                    counts = (above_j & fit) * (lower & fit) & fit
                    yield m, j + 1 + l, j + 1, k, counts << low * width


class CountTable(Mapping):
    """A read-only table of counts keyed ``(n, *key)`` for n <= max_n, whose
    entries are its nonzero counts.

    Each key holds one packed row, the counts of every n in slots of
    ``width`` bits, and every read unpacks it.
    """

    __slots__ = ("_packed", "_max_n", "_width")

    def __init__(self, packed: Mapping[tuple, int], max_n: int, width: int):
        self._packed = dict(packed)
        self._max_n = max_n
        self._width = width

    def row(self, key: tuple) -> list[int]:
        """The counts at ``key`` of n = 0 .. max_n."""
        return list(_unpack(self._packed.get(key, 0), self._width, self._max_n + 1))

    def __getitem__(self, entry: tuple) -> int:
        n, key = entry[0], entry[1:]
        if key in self._packed and 0 <= n <= self._max_n:
            count = self.row(key)[n]
            if count:
                return count
        raise KeyError(entry)

    def __iter__(self) -> Iterator[tuple]:
        for key in self._packed:
            for n, count in enumerate(self.row(key)):
                if count:
                    yield (n, *key)

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass(frozen=True)
class HookTally:
    """Hook statistics over the partitions of every n <= max_n in a family.

    ``by_part[(n, m, k, h)]`` counts cells (i, m) with part size k and
    fixedness h = hook - i, for columns m <= max_m; ``by_hook`` keys on the
    hook size instead.  ``hooks_col[(n, m, k)]`` counts hooks of size k in
    column m <= max_m, and ``hooks_total[(n, k)]`` in all columns.  The
    tally is cached and shared, so each table is a read-only
    :class:`CountTable`, whose ``row(key)`` gives the counts at ``key`` (the
    entry key less n) of every n <= max_n as one list.

    The cells are counted by decomposition (:func:`_cells`), never by
    listing partitions: for each key (m, c, i, part), with c the length of
    column m, one packed row gives the number of partitions of each n that
    have such a cell.  That key fixes the hook part - m + c - i + 1, so all
    four tables are sums of those rows over the keys of every column
    m <= max_n.
    """

    max_n: int
    family: Family
    max_m: int
    by_part: CountTable
    by_hook: CountTable
    hooks_col: CountTable
    hooks_total: CountTable


def _tables(
    max_n: int, family: Family, max_m: int, columns: Sequence[int]
) -> tuple[CountTable, CountTable, CountTable, CountTable]:
    """``by_part``, ``by_hook``, ``hooks_col`` and ``hooks_total`` of
    :class:`HookTally`, with ``hooks_total`` summed over ``columns`` only."""
    # A partition of n has n cells, so no count reaches max_n * p(max_n).
    width = _slot_width(max_n * partition_count(max_n))
    by_part, by_hook = defaultdict(int), defaultdict(int)
    hooks_col, hooks_total = defaultdict(int), defaultdict(int)
    for m, c, i, part, counts in _cells(max_n, family, columns, width):
        hook = part - m + c - i + 1
        if m > max_m:
            hooks_total[(hook,)] += counts
        else:
            by_part[(m, part, hook - i)] += counts
            by_hook[(m, hook, hook - i)] += counts
    for (m, hook, _), counts in by_hook.items():
        hooks_col[(m, hook)] += counts
        hooks_total[(hook,)] += counts
    tables = (by_part, by_hook, hooks_col, hooks_total)
    return tuple(CountTable(table, max_n, width) for table in tables)


@lru_cache(maxsize=None)
def hook_tally(max_n: int, family: Family = Family.ALL, max_m: int = 6) -> HookTally:
    """The tally of every n <= max_n, cached and shared by every caller.

    Every table is summed from packed rows, so a case reads all its counts
    as one ``row``.

    Raises ValueError when max_m < 1 or max_n < 0.
    """
    if max_m < 1:
        raise ValueError("max_m must be >= 1")
    return HookTally(max_n, family, max_m, *_tables(max_n, family, max_m, range(1, max_n + 1)))


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
    sizes = range(1, n + 1) if k is None else (k,)
    return sum(table.get((n, m, size, h), 0) for size in sizes)


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
