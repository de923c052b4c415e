"""Counting oracles for fixed-hook counts and their companion objects.

Every hook count reads a :class:`HookTally`, whose rows count the
partitions that own each cell by decomposition instead of listing them (see
"Hook census by cell decomposition" below), each row packed into one integer
and computed the first time it is read from tables built by packed
divisions by 1 - q^a.  The verifier reads the cached :func:`hook_tally`,
and each point count its row of an uncached one.  The second formula is
:func:`fixed_hook_witnesses`, a walk down each partition's
:meth:`Partition.column_hooks`; the tests hold every count equal to the
length of its witness list, and the tally equal to a per-cell loop over
every partition.
The companion objects of Theorems 11, 12 and 13 are counted as rows of
block products: each object splits into blocks of part sizes chosen
independently (sizes avoided in a gap, a run of sizes all present, free
second-color parts), and each oracle builds the count of every n up to a
bound at once, as coin changes over the sizes its blocks admit (for T13's
derived objects, times rows of distinct parts and summed over their number
of big parts by Horner's rule).  The point counts read
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

import struct
import sys
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, product
from operator import add
from typing import Callable, Iterator, Mapping, NamedTuple

from .partitions import (
    DEFAULT_VARIANT,
    Family,
    Partition,
    _row,
    enumerate_parts,
    enumerate_partitions,
    partition_count,
    require_column,
    require_hook_size,
    require_variant,
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
# block admits (:func:`~fixedhooks.partitions._row`, a size listed twice
# coming in two colors), or, for T13's derived objects, a row of exactly
# k - m distinct parts.


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
    max_n: int, m: int, k: int, h: int = 0, variant: str = DEFAULT_VARIANT
) -> list[int]:
    """:func:`count_colored_thm13` of every n' <= max_n.

    ``stated``: removing one part of each size 1 .. k-m leaves a first color
    that only avoids k-m+1 .. k+m-1, so the row is q^{C(k-m+1, 2)} times
    those partitions times the second color.  ``derived``: for each u, the
    u big parts less k+m each are a partition into parts <= u (by
    conjugation), so the objects are q^{u(k+m)} times k-m distinct parts
    <= u + h times the parts <= u and the second color, summed over u by
    Horner's rule from the largest u down.
    """
    require_column(m, k)
    require_variant(variant)
    if variant == "stated":
        low = (k - m) * (k - m + 1) // 2
        top = max_n - low
        sizes = chain(range(1, k - m + 1), range(k + m, top + 1), range(1, m))
        return _shift(_row(top, sizes), low, max_n + 1)
    big = k + m  # the least big part
    u0 = max(0, k - m - h)
    lift = (k - m - h) * big  # objects of n' weigh n' + lift
    top = max_n + lift
    # rows[j][x]: x as exactly j distinct parts <= cap, cut at the most the
    # distinct and free parts can weigh beside the big parts, which falls as
    # u grows while the cap u + h rises.  distinct[u - u0] is then D_u, the
    # row of exactly k - m distinct parts <= u + h.
    rows = [[int(j == 0)] + [0] * (top - u0 * big) for j in range(k - m + 1)]
    cap, distinct = 0, []
    for u in range(u0, top // big + 1):
        rem = top - u * big
        for row in rows:
            del row[rem + 1 :]
        while cap < min(u + h, rem):
            cap += 1
            for j in range(min(cap, k - m), 0, -1):
                rows[j][cap:] = map(add, rows[j][cap:], rows[j - 1])
        distinct.append(rows[-1][:])
    # Horner's rule from the largest u down: t <- D_u + q^big t / (1 - q^(u+1)),
    # so that t / (q;q)_u0 is the sum over u of q^((u - u0) big) D_u / (q;q)_u.
    t: list[int] = []
    for u in range(top // big, u0 - 1, -1):
        row = distinct.pop()
        row[big:] = map(add, row[big:], _row(len(t) - 1, (u + 1,), t))
        t = row
    free = chain(range(1, u0 + 1), range(1, m))
    return _shift(_row(len(t) - 1, free, t), u0 * big - lift, max_n + 1)


def count_colored_thm13(nprime: int, m: int, k: int, h: int = 0,
                        variant: str = DEFAULT_VARIANT) -> int:
    """Colored companions of the h-fixed hooks from parts of size k in column m.

    ``variant="stated"`` counts two-colored partitions of ``nprime`` whose
    first color avoids part sizes k-m+1 .. k+m-1 and contains every size
    1 .. k-m at least once; ``h`` does not restrict these objects.  That
    description only tracks the fixed-hook count at h = 0.

    ``variant="derived"``, the default, counts the h-aware configurations
    the summands actually decompose into: exactly u first-color parts of
    size >= k+m (u ranging over max(0, k-m-h), ...), k-m distinct extra
    parts of sizes in [1, u+h] and free second-color parts <= m-1, at
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
    if 2 * m * -h > top:  # too little for -h parts >= 2m, or for the part m
        return [0] * (max_n + 1)
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
# A cell (i, m) whose row has part k, with l rows below it in its column,
# has hook k - m + l + 1, and it splits its partition into three blocks that
# are chosen independently: the j = i - 1 rows above are parts >= k, the l
# rows below are parts in [m, k], and every other row is a part < m.  In a
# distinct family the rows above are distinct parts > k, those below
# distinct parts in [m, k - 1] and the rest distinct parts < m; in an odd
# family every block takes odd parts only.  Less a constant from each part,
# every block is j parts from the family's first t sizes 1, 1 + s, ... (s
# the step); less 1 more, j parts from 0, s, ..., (t - 1) s: the Gaussian
# binomial [j + t - 1, j] in q^s, or q^(s C(j, 2)) [t, j] if distinct
# (Andrews, The Theory of Partitions, ch. 3).  So row j is row j - 1 (times
# q^(s (j - 1)) if distinct) over 1 - q^(sj), times 1 - q^(s top), top =
# j + t - 1 (t - j + 1 if distinct).  A series of counts is packed into one
# integer: packing evaluates at 2**width and a mask of n slots reduces
# modulo 2**(n * width), both ring homomorphisms, and carries only move up,
# so a masked product or difference is exact in every slot whose true count
# fits, negative or not.  Dividing first, a quotient's slot x counts row j's
# partitions plus a multiple of s top, at most (x / top + 1) p(x) of them.


def _slot_width(bound: int) -> int:
    """Bits per slot of a packed row of counts <= ``bound``: the least of 8,
    16, 32, 64 and the multiples of 64 past them with 2**width > bound."""
    bits = bound.bit_length()
    return next((width for width in (8, 16, 32, 64) if bits <= width), -(-bits // 64) * 64)


_WORD_CODES = {struct.calcsize(code): code for code in "QIHB"}  # native codes by word size


def _unpack(packed: int, width: int, slots: int) -> list[int]:
    """The first ``slots`` slots of a packed row; raises OverflowError when
    a higher slot is not zero."""
    size = width // 8
    data = packed.to_bytes(slots * size, sys.byteorder)
    if size in _WORD_CODES:
        row = memoryview(data).cast(_WORD_CODES[size]).tolist()
    else:
        row = [int.from_bytes(data[i : i + size], sys.byteorder) for i in range(0, len(data), size)]
    return row if sys.byteorder == "little" else row[::-1]


class _Census:
    """One family's census blocks up to max_n and the packed rows of their
    tables; raises ValueError when max_n < 0 or the family is unknown."""

    def __init__(self, max_n: int, family: Family):
        if max_n < 0:
            raise ValueError("n must be non-negative")
        family = Family(family)
        self.max_n = max_n
        self.step = step = family.step
        self.distinct = distinct = family.distinct
        self.gap = step if distinct else 0  # the rows above are parts >= k + gap
        # A partition of n has n cells, so no count reaches max_n * p(max_n).
        self.width = _slot_width(max_n * partition_count(max_n))
        # fits[low]: the mask of the slots still <= max_n after a shift by low.
        self.fits = [(1 << (max_n - low + 1) * self.width) - 1 for low in range(max_n + 1)]
        # rests[t]: partitions into the first t sizes, each over 1 - q^size, times
        # 1 - q^(2 size) if distinct; full: parts of every size <= max_n.
        self.rests = list(accumulate(range(1, max_n + 1, step), lambda rest, size: self._ratio(
            rest, size, 2 * size if distinct else max_n + 1, 0), initial=1))
        self.full = self._parts(len(self.rests) - 1)
        self._belows: dict[int, list[int]] = {}
        self._aboves: dict[int, int] = {}

    def _ratio(self, row: int, a: int, b: int, low: int) -> int:
        """Slots <= max_n - low of ``row`` (1 - q^b) / (1 - q^a), a >= 1, and b
        past them for 1: adds the row shifted by a, 2a, 4a, ... <= max_n - low
        slots, the factors 1 + q^(a 2^i) of 1 / (1 - q^a), masking each sum."""
        fit, width = self.fits[low], self.width
        while a <= self.max_n - low:
            row, a = row + (row << a * width) & fit, 2 * a
        return row - (row << b * width) & fit

    def _parts(self, t: int) -> list[int]:
        """Row l: slot x <= max_n - l counts x + l as exactly l parts of the first t sizes."""
        s, rows = self.step, [1]
        for l in range(1, min(t, self.max_n) + 1 if self.distinct else self.max_n + 1):
            lift, top = (l - 1, t - l + 1) if self.distinct else (0, l + t - 1)
            rows.append(self._ratio(rows[-1] << s * lift * self.width, s * l, s * top, l))
        return rows

    def _cell(self, m: int, k: int, l: int, j: int | None) -> int:
        """Slot n: the partitions of n, less their parts < m, with a cell in
        column m with part k, l rows below it and j rows above it (any
        number when j is None): a hook k - m + l + 1 in row j + 1."""
        m0 = m + (m - 1) % self.step  # the family's least part >= m
        fewest = j or 0  # the fewest rows above
        low = k + l * m0 + fewest * (k + self.gap)  # the least weight of those partitions
        if m < 1 or k < m0 or low > self.max_n or (k - m0) % self.step or fewest < 0:
            return 0
        # Less m0 - 1 from each, the rows below take the first t sizes: k is
        # t - 1 steps above m0 (t steps if distinct, since they stay below k).
        t = (k - m0) // self.step + 1 - self.distinct
        if t not in self._belows:
            self._belows[t] = self._parts(t)
        if l >= len(below := self._belows[t]):
            return 0
        above, fit = self.full[j] if j is not None else self._above(k), self.fits[low]
        return ((above & fit) * (below[l] & fit) & fit) << low * self.width

    def _above(self, k: int) -> int:
        """Slot x: the rows above a cell with part k, of any number, of weight x."""
        if k not in self._aboves:
            size = k + self.gap  # with the part k, j rows above weigh at least k + j size
            rows = enumerate(self.full[: (self.max_n - k) // size + 1])
            self._aboves[k] = sum((row & self.fits[j * size]) << j * size * self.width
                                  for j, row in rows)
        return self._aboves[k]

    def _rest(self, m: int, counts: int) -> int:
        """``counts`` times the partitions into the family's parts < m."""
        return counts and counts * self.rests[-(-(m - 1) // self.step)] & self.fits[0]

    def by_part(self, m: int, k: int, h: int) -> int:
        # j >= 0 from l = first on, and each later l adds a row below and one above: > k.
        ls = range(first := max(0, h - k + m), first + self.max_n // (k + 1) + 1)
        return self._rest(m, sum(self._cell(m, k, l, k - m + l - h) for l in ls))

    def by_hook(self, m: int, hook: int | None, h: int | None) -> int:
        # Every size s if hook is None, and every fixedness if h is None: any
        # number j of rows above.  The part k and the j rows above weigh >= k (j + 1).
        sizes = range(1, self.max_n + 1) if hook is None else (hook,)
        cells = ((m, s + m - 1 - l, l, j) for s in sizes for j in [None if h is None else s - h - 1]
                 for l in range(max(0, s + m - 1 - self.max_n // max(1, (j or 0) + 1)), s))
        return self._rest(m, sum(self._cell(*cell) for cell in cells))

    def hooks_total(self, hook: int) -> int:
        return sum(self.by_hook(m, hook, None) for m in range(1, self.max_n + 1))


class CountTable(Mapping):
    """A read-only table of counts keyed ``(n, *key)`` for n <= max_n, whose
    entries are its nonzero counts.

    Each key holds one packed row, the counts of every n in slots of
    ``width`` bits, computed by ``count(*key)`` on first read and cached;
    every read unpacks it.  Iteration runs over the product of the ranges
    ``keys``; every other row is zero or, at a None key, a sum of rows in it.
    """

    __slots__ = ("_count", "_keys", "_packed", "_census")

    def __init__(self, count: Callable[..., int], keys: tuple[range, ...], census: _Census):
        self._count, self._keys, self._census = count, keys, census
        self._packed: dict[tuple, int] = {}

    def row(self, key: tuple) -> list[int]:
        """The counts at ``key`` of n = 0 .. max_n."""
        if key not in self._packed:
            self._packed[key] = self._count(*key)
        return _unpack(self._packed[key], self._census.width, self._census.max_n + 1)

    def __getitem__(self, entry: tuple) -> int:
        n, key = entry[0], entry[1:]
        if 0 <= n <= self._census.max_n and (count := self.row(key)[n]):
            return count
        raise KeyError(entry)

    def __iter__(self) -> Iterator[tuple]:
        for key in product(*self._keys):
            yield from ((n, *key) for n, count in enumerate(self.row(key)) if count)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class HookTally(NamedTuple):
    """Hook statistics over the partitions of every n <= max_n in a family.

    ``by_part[(n, m, k, h)]`` counts cells (i, m) with part k and fixedness
    h = hook - i; ``by_hook`` keys on the hook size instead.  A None key is
    the sum of its rows: ``by_hook`` at k None counts every size, and at h
    None every fixedness, the hooks of size k in column m.
    ``hooks_total[(n, k)]`` counts them in all columns.  Each table is a
    read-only :class:`CountTable`, whose ``row(key)`` gives the counts at
    ``key`` (the entry key less n) of every n <= max_n as one list.
    """

    max_n: int
    family: Family
    by_part: CountTable
    by_hook: CountTable
    hooks_total: CountTable


def _hook_tally(max_n: int, family: Family = Family.ALL) -> HookTally:
    """The tally of every n <= max_n; a caller pays only for the rows it
    reads.  :func:`hook_tally` caches it and shares it with every caller.

    Raises ValueError when max_n < 0 or the family is unknown.
    """
    census = _Census(max_n, family)
    sizes, hs = range(1, max_n + 1), range(-max_n, max_n)
    return HookTally(max_n, Family(family), CountTable(census.by_part, (sizes, sizes, hs), census),
                     CountTable(census.by_hook, (sizes, sizes, hs), census),
                     CountTable(census.hooks_total, (sizes,), census))


hook_tally = lru_cache(maxsize=None)(_hook_tally)


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
    ``k=None`` counts every size, whichever ``by`` (a cell has one part and
    one hook).  Since a column carries at most one h-fixed hook, this is
    the number of :func:`fixed_hook_witnesses`.
    """
    _require_query(m, k, by)
    tally = _hook_tally(n, family)  # uncached: n is its top slot
    table = tally.by_part if by == "part" and k is not None else tally.by_hook
    return table.row((m, k, h))[n]


def count_hooks_of_size(n: int, k: int, m: int | None = None, family: Family = Family.ALL) -> int:
    """Cells with hook length k in all partitions of n in the family.

    With ``m`` given, only cells in column m are counted; with ``m`` absent,
    cells in every column.
    """
    require_hook_size(k)
    if m is not None:
        require_column(m)
    tally = _hook_tally(n, family)  # uncached: n is its top slot
    return (tally.hooks_total.row((k,)) if m is None else tally.by_hook.row((m, k, None)))[n]


def fixed_hook_witnesses(
    n: int, m: int, h: int, k: int | None = None, family: Family = Family.ALL, by: str = "hook"
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
