"""Integer partitions, Young diagram hook lengths, and restricted enumeration.

Partitions are weakly decreasing tuples of positive integers.  Everything in
this module is exact integer combinatorics; the generating-function side of
the package lives in :mod:`fixedhooks.qseries` and :mod:`fixedhooks.genfun`.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Iterable, Iterator


class Family(str, Enum):
    """Which partitions an enumeration yields.

    ``ODD`` keeps partitions whose parts are all odd, ``DISTINCT`` those with
    strictly decreasing parts, ``ODD_DISTINCT`` both at once.
    """

    ALL = "all"
    ODD = "odd"
    DISTINCT = "distinct"
    ODD_DISTINCT = "odd-distinct"

    @property
    def step(self) -> int:
        """The distance between admissible part sizes: 2 in the odd families."""
        return 2 if self in (Family.ODD, Family.ODD_DISTINCT) else 1

    @property
    def distinct(self) -> bool:
        """Whether the family's parts are strictly decreasing."""
        return self in (Family.DISTINCT, Family.ODD_DISTINCT)

    def admits(self, parts: tuple[int, ...]) -> bool:
        """The rule again, apart from step and distinct: the tests' reference."""
        if self in (Family.ODD, Family.ODD_DISTINCT):
            if any(p % 2 == 0 for p in parts):
                return False
        if self in (Family.DISTINCT, Family.ODD_DISTINCT):
            if any(a == b for a, b in zip(parts, parts[1:])):
                return False
        return True


def require_column(m: int, k: int | None = None) -> None:
    """Reject a column index m < 1 and, when given, a part size k < m, which
    has no cell in column m."""
    if m < 1:
        raise ValueError("column index m must be >= 1")
    if k is not None and k < m:
        raise ValueError(f"part size k={k} has no cell in column m={m}")


# The readings of a closed form given in two index conventions: "stated" as
# displayed, "derived" with the under- and above-hook factors re-derived from
# the diagram, the one that matches the census everywhere.
VARIANTS = ("stated", "derived")
DEFAULT_VARIANT = "derived"


def require_variant(variant: str) -> None:
    """Reject a variant that is not one of :data:`VARIANTS`."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


def require_hook_size(k: int) -> None:
    """Reject a hook size k < 1: every hook has length at least 1."""
    if k < 1:
        raise ValueError("hook size k must be >= 1")


def conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column counts of the Young diagram: entry j-1 is #{i : parts[i] >= j}."""
    if not parts:
        return ()
    out = []
    r = len(parts)
    i = r
    for j in range(1, parts[0] + 1):
        while i > 0 and parts[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


class Partition:
    """A partition of a non-negative integer.

    Each part must be an integer (``operator.index``); zero parts are
    stripped on construction, so ``parts`` holds positive integers only and
    the empty tuple is the unique partition of 0.  Instances are treated as
    immutable; the conjugate is cached.

    >>> Partition((4, 4, 3, 1)).conjugate().parts
    (4, 3, 3, 2)
    """

    __slots__ = ("parts", "n", "_conj")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(p for p in map(operator.index, parts) if p != 0)
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"parts must be non-negative: {ps}")
        self.parts = ps
        self.n = sum(ps)
        self._conj = None

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.parts) + ")"

    def __len__(self):
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """The transpose of the Young diagram.  An involution."""
        return Partition(self.conj_parts())

    def conj_parts(self) -> tuple[int, ...]:
        if self._conj is None:
            self._conj = conjugate_parts(self.parts)
        return self._conj

    def hook_length(self, i: int, j: int) -> int:
        """Hook length of cell (i, j), 1-indexed: arm + leg + 1.

        Raises ValueError when (i, j) is not a cell of the diagram.
        """
        if not (1 <= i <= len(self.parts)) or not (1 <= j <= self.parts[i - 1]):
            raise ValueError(f"({i}, {j}) is not a cell of {self}")
        return self.column_hooks(j)[i - 1]

    def column_hooks(self, m: int) -> tuple[int, ...]:
        """Hook lengths down column m: (h_{1,m}, ..., h_{t,m}) with t parts >= m.

        The sequence is strictly decreasing; it is empty when no part
        reaches column m.
        """
        require_column(m)
        conj = self.conj_parts()
        cm = conj[m - 1] if m <= len(conj) else 0
        return tuple(self.parts[i - 1] + cm - i - m + 1 for i in range(1, cm + 1))


def _gen_parts(n: int, cap: int, step: int, gap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n whose parts are cap, cap - step, ... down to 1, each
    part at most the one before minus ``gap``.  ``cap`` has the parity of
    the parts when step is 2."""
    if n == 0:
        yield ()
        return
    if cap > n:
        cap = n - (n + 1) % step  # the largest admissible part <= n
    for first in range(cap, 0, -step):
        for rest in _gen_parts(n - first, first - gap, step, gap):
            yield (first,) + rest


def enumerate_parts(
    n: int, family: Family = Family.ALL, max_part: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the part tuples of every partition of n in the family.

    Reverse-lexicographic order: (n) first, (1,...,1) last.  ``max_part``
    additionally caps every part.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    family = Family(family)
    # Odd parts step by 2 from an odd cap; distinct parts leave a gap of one
    # step below each part.
    step = family.step
    gap = step if family.distinct else 0
    cap = n if max_part is None else min(n, max_part)
    yield from _gen_parts(n, cap - (cap + 1) % step, step, gap)


def enumerate_partitions(n: int, family: Family = Family.ALL) -> Iterator[Partition]:
    """Like :func:`enumerate_parts` but wrapping each tuple in a Partition."""
    for parts in enumerate_parts(n, family):
        yield Partition(parts)


def _row(max_n: int, sizes: Iterable[int], ways: list[int] | None = None) -> list[int]:
    """Partitions of each x <= max_n into parts from ``sizes``, or, with
    ``ways`` given, that series times theirs, computed in ``ways`` in place."""
    if ways is None:
        ways = [1] + [0] * max_n
    for size in sizes:
        for x in range(size, max_n + 1):
            ways[x] += ways[x - size]
    return ways


def partition_count(n: int, max_part: int | None = None) -> int:
    """Number of partitions of n (into parts <= max_part when given).

    Exact integers, without recursion: one coin change over the sizes
    1 .. min(max_part, n) counts every x <= n in O(n) memory and at most
    n^2 additions; nothing is kept.
    """
    if n < 0:
        return 0
    return _row(n, range(1, min(n if max_part is None else max_part, n) + 1))[n]
