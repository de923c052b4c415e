"""Series builders for fixed-hook counting identities.

Each public ``gf_*`` function returns the summand stream of a generating
function.  Summed by :func:`~fixedhooks.qseries.sum_summands` (imported
here) and truncated at a caller-supplied order N, the stream's series has
at q^n a fixed-hook count of the matching enumeration oracle in
:mod:`fixedhooks.oracles`.  :data:`CATALOG` holds one row per theorem:
its builder and what the verifier checks of it.  :func:`takes` states
the parameters and variants a theorem takes, :func:`builder_args` checks
a builder's arguments against it, and :func:`build_series` sums a catalog
entry's stream.  The builders are generators, so a builder checks its
parameters when its stream is first read.

A summand ``(e, factors)`` is q^e times the product of a finite factor
multiset, a tuple of Pochhammer runs (see
:func:`fixedhooks.qseries.merge_factors` and its constructors); the
factors common to every summand of a builder, its tail, are merged into
each one.  Consecutive summands share most of their factors, and
``sum_summands`` applies only the binomials in which neighbours differ, so
a run shared by the whole stream, such as the tail, is expanded once.  The
streams of several builders can be chained and summed in one pass, as the
aggregate checks of :mod:`fixedhooks.verify` do.  Nested sums are flattened
into double-indexed streams.  Every factor is a power series with constant
term 1, so a summand has valuation e, and the window [min e, N) holds every
needed coefficient.  Infinite sums stop once e reaches N, by the monotone
growth of e noted inline per builder; a by-part stream ends once j >= 0
and e reaches N.  A by-hook summand sits at q^k or above, so its stream is
empty for k >= N.

Two conventions do the index bookkeeping everywhere, as for the dense
kernels:

* ``inv_poch_factors(..., count)`` is the zero product (None) for
  ``count < 0`` (reciprocal of a pole), which switches off summands whose row
  count would be negative; merged into every summand as a by-hook builder's
  tail ``1/(q^s;q^s)_{k-h-1}`` is, it makes the series zero for h >= k;
* ``gauss_factors(a, b)`` is zero unless ``0 <= b <= a`` (with ``b == 0``
  giving 1), which enforces the printed summation limits.

No finite sum restates a span bound that a zero binomial or a negative
reciprocal already gives.  ``b == 0`` is the exception: it gives 1 for
every ``a``, so the by-part rows forms keep their own starts.

One rule serves each family of partitions (all, odd, distinct, and odd
and distinct), by part as by hook: :func:`gf_by_part` and
:func:`gf_by_hook` read the family only through its step s and
distinctness.  Part sizes and so hook spans step by s, the binomials are
in q^s, and a distinct family's strictly growing rows add to the
exponent and leave the binomial no repeatable rows.

Two builders take a ``variant``, one of
:data:`~fixedhooks.partitions.VARIANTS`: :func:`gf_by_part` and
:func:`gf_odd_distinct_total`, because the closed forms they implement
circulate in two index conventions that disagree past the first column;
the verifier compares both against the counting oracle and records which
one matches.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import count
from typing import Callable, Iterator, NamedTuple

from .partitions import (DEFAULT_VARIANT, VARIANTS, Family, require_column, require_hook_size,
                         require_variant)
from .qseries import (
    Factors,
    LaurentSeries,
    Summand,
    gauss_factors,
    inv_poch_factors,
    merge_factors,
    poch_factors,
    sum_summands,
)


# The two displayed forms of the by-part closed form; the first is the default.
FORMS = ("reindexed", "rows")


def _choose2(x: int) -> int:
    """x*(x-1)/2 as a polynomial in x (negative arguments allowed)."""
    return x * (x - 1) // 2


# ---------------------------------------------------------------------------
# Fixed hooks counted by the part size they arise from
# ---------------------------------------------------------------------------


def gf_fixed_by_part_m1(
    k: int, h: int, order: int, form: str = "reindexed"
) -> Iterator[Summand]:
    """First-column h-fixed hooks arising from parts of size k.

    ``form="reindexed"`` sums from s = max(0, h-k+1), the first s whose rows
    above, j = s+k-h-1, are not the zero product; ``form="rows"`` keeps the
    summation index equal to the row of the fixed part, j + 1.  Both yield
    the same summands in the same order, so their agreement checks the index
    map s = j + 1, not a second derivation.  Summand minimum exponents grow
    linearly in s (slope k+1), which bounds the truncation.
    """
    require_column(1, k)
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if form == "reindexed":
        s = max(0, h - k + 1)
        while (e := s * (k + 1) + k * (k - h)) < order:
            yield e, merge_factors(inv_poch_factors(1, s + k - h - 1),
                                   gauss_factors(s + k - 1, k - 1))
            s += 1
    else:
        s = max(1, k - h)
        while (e := (k + 1) * (s - 1) + h + 1) < order:
            yield e, merge_factors(inv_poch_factors(1, s - 1),
                                   gauss_factors(s + h - 1, k - 1))
            s += 1


def gf_mfixed_by_part(m: int, k: int, h: int, order: int) -> Iterator[Summand]:
    """h-fixed hooks in column m arising from parts of size k >= m, in the
    rows form: the summation index is the row of the fixed part, s = j + 1
    for j rows above.  The reindexed form, :func:`gf_by_part` for all
    partitions, sums over j and yields the same summands in the same order
    (as :func:`gf_fixed_by_part_m1` does at m = 1), so their agreement checks
    the index map s = j + 1, not a second derivation.  Summand exponents
    grow with slope k+m."""
    require_column(m, k)
    tail = inv_poch_factors(1, m - 1)
    s = max(1, k - h - m + 1)
    while (e := s * (k + m) + m * (h - k + m - 1)) < order:
        yield e, merge_factors(inv_poch_factors(1, s - 1),
                               gauss_factors(s + h - 1, k - m), tail)
        s += 1


def _family_column(family: Family, m: int) -> tuple[int, bool, int, Factors]:
    """The step s and distinctness d of ``family``, the lift (m-1) mod s
    that takes m to the family's least part m + lift >= m, and the factor
    of the ceil((m-1)/s) part sizes below m: (-q;q^s)_b if d, else
    1/(q;q^s)_b."""
    s, d = family.step, family.distinct
    lift, below = (m - 1) % s, -(-(m - 1) // s)
    column = poch_factors(1, below, step=s, sign=-1) if d else inv_poch_factors(1, below, step=s)
    return s, d, lift, column


def gf_by_part(
    family: Family, m: int, k: int, h: int, order: int, variant: str = DEFAULT_VARIANT
) -> Iterator[Summand]:
    """h-fixed hooks in column m arising from parts of size k >= m in
    ``family``'s partitions.

    Only the family's step s and distinctness d are read, through
    :func:`_family_column`.  A part k with s not dividing k - m - lift is
    not in the family and gives no summand; else span = (k - m - lift)/s.
    Summand l counts the rows below the fixed part and j = k-m+l-h those
    above it: q^e with e = k(j+1) + l(m+lift), plus s*(C(j+1, 2) + C(l, 2))
    if d, times 1/(q^s;q^s)_j, the Gaussian binomial in q^s with bottom l
    and top span, plus l unless d, and the column factor.  If d, the sum
    runs over l = 0 .. span, where below l = h-k+m the j < 0 rows above are
    the zero product, else from l = max(0, h-k+m); it stops once j >= 0 and
    e, growing with l from there (by k+m+lift, plus s*(j+1+l) if d), reaches
    the order.  With d a summand may sit at a negative exponent.

    The "stated" variant keeps the displayed index conventions, which
    disagree past the first column: if d, the rows above count k-h-1 for
    every l; otherwise the binomial's bottom is l - (m-1) and e gains
    s*lift.
    """
    require_column(m, k)
    require_variant(variant)
    s, d, lift, column = _family_column(family, m)
    span, off_step = divmod(k - m - lift, s)
    if off_step:
        return
    stated = variant == "stated"
    for l in range(span + 1) if d else count(max(0, h - k + m)):
        j = k - m + l - h
        e, above, bottom = k * (j + 1) + l * (m + lift), j, l
        if d:
            e += s * (_choose2(j + 1) + _choose2(l))
            above = k - h - 1 if stated else j
        elif stated:
            e, bottom = e + s * lift, l - (m - 1)
        if j >= 0 and e >= order:
            return
        yield e, merge_factors(inv_poch_factors(s, above, step=s),
                               gauss_factors(span + (0 if d else bottom), bottom, s), column)


# ---------------------------------------------------------------------------
# Fixed hooks counted by their hook size
# ---------------------------------------------------------------------------


def gf_fixed_by_hook_m1(k: int, h: int, order: int) -> Iterator[Summand]:
    """First-column h-fixed hooks of size k.  Zero series when h >= k.
    This is :func:`gf_by_hook` for all partitions at m = 1, summand for
    summand, so their agreement is not a second derivation."""
    require_hook_size(k)
    if k >= order:
        return
    tail = inv_poch_factors(1, k - h - 1)
    for l in range(1, k + 1):
        yield k + l * (k - h - 1), merge_factors(gauss_factors(k - 1, l - 1), tail)


def gf_by_hook(family: Family, m: int, k: int, h: int, order: int) -> Iterator[Summand]:
    """h-fixed hooks of size k in column m of ``family``'s partitions.

    Only the family's step s and distinctness d are read, through
    :func:`_family_column`.  Summand l = 1 + lift, 1 + lift + s, ... <= k
    is q^e times the Gaussian binomial in q^s with bottom k-l and top
    floor((l-1-lift)/s), plus k-l unless d, times the tail
    1/(q^s;q^s)_{k-h-1} and the column factor.  The exponent e is
    :func:`by_hook_exponent` plus lift*(k-l), plus
    s*(C(k-h, 2) + C(k-l, 2)) if d.  A span too short for k-l distinct rows
    gets the zero binomial.  At m = 1 in the family of all partitions this
    yields the summands of :func:`gf_fixed_by_hook_m1` in the same order.
    """
    require_column(m)
    require_hook_size(k)
    if k >= order:
        return
    s, d, lift, column = _family_column(family, m)
    tail = merge_factors(inv_poch_factors(s, k - h - 1, step=s), column)
    for l in range(1 + lift, k + 1, s):
        e = by_hook_exponent(m, k, h, l) + lift * (k - l)
        if d:
            e += s * (_choose2(k - h) + _choose2(k - l))
        top = (l - 1 - lift) // s + (0 if d else k - l)
        yield e, merge_factors(gauss_factors(top, k - l, s), tail)


def gf_odd_distinct_total(k: int, order: int, variant: str = DEFAULT_VARIANT) -> Iterator[Summand]:
    """Hooks of length k in all odd-and-distinct partitions, all columns.

    :func:`gf_by_hook`'s rule with s = 2, resummed over every column and
    fixedness.  Summand (l, j), odd spans l first (lift 0), then even ones
    (lift 1), is q^e, e = k + 2C(k-l, 2) + lift(k-l) + (2j+up)(k-l+1), times
    the binomial in q^2 with bottom k-l and top floor((l-1-lift)/2), zero
    for too short a span, and 1/(-q^(2j+1+2up);q^2)_c.  "stated" keeps the
    circulated lengths, up = 0 and c = floor(l/2); "derived" recollapses
    the telescoping product: c = (l+1)/2 for odd l, and up = lift.  The
    j-sum stops once e, growing as k-l+1 >= 1, reaches the order.
    """
    require_hook_size(k)
    require_variant(variant)
    if k >= order:
        return
    derived = variant == "derived"
    tail = poch_factors(1, None, step=2, sign=-1)
    # Odd spans first, then even ones: consecutive summands share factors.
    for lift in (0, 1):
        up = derived and lift
        for l in range(1 + lift, k + 1, 2):
            outer = gauss_factors((l - 1 - lift) // 2, k - l, 2)
            if outer is None:
                continue
            e0 = k + 2 * _choose2(k - l) + lift * (k - l)
            j = 0
            while (e := e0 + (2 * j + up) * (k - l + 1)) < order:
                inner = inv_poch_factors(2 * j + 1 + 2 * up, l // 2 + (derived and not lift),
                                         step=2, sign=-1)
                yield e, merge_factors(outer, inner, tail)
                j += 1


# ---------------------------------------------------------------------------
# Closed forms for the headline identities
# ---------------------------------------------------------------------------


def gf_t11_closed_form(m: int, order: int) -> Iterator[Summand]:
    """Partitions with a 0-fixed hook in column m, via the colored closed form.

    The l-sum is truncated once l(l+m-1) reaches N; the quadratic growth in
    l makes the remainder invisible below N.
    """
    require_column(m)
    tail = merge_factors(inv_poch_factors(1, m - 1), inv_poch_factors(1, None))
    l = 1
    while (e := l * (l + m - 1)) < order:
        yield e, merge_factors(poch_factors(l, 2 * m - 1), tail)
        l += 1


def gf_t12_closed_form(m: int, h: int, order: int) -> Iterator[Summand]:
    """h-fixed hooks in column m arising from parts of size exactly m.

    The closed form is q^{m(h+1)} / ((q;q)_{m-1} (q^{2m};q)_inf), minus,
    for h < 0, the first -h terms of the expansion
    1/(q^{2m};q)_inf = sum_s q^{2ms}/(q;q)_s.  What remains is that
    expansion from s = max(0, -h) on, which is the stream given here: its
    exponents m(h+1) + 2ms start at m(1 + |h|) >= 1 and grow with slope 2m.
    """
    require_column(m)
    tail = inv_poch_factors(1, m - 1)
    s = max(0, -h)
    while (e := m * (h + 1) + 2 * m * s) < order:
        yield e, merge_factors(inv_poch_factors(1, s), tail)
        s += 1


def t13_weight_shift(m: int, k: int, h: int) -> int:
    """Weight offset between the fixed-hook count and its colored companion:
    the colored objects live at n + C(k-m+1, 2) - k(k-h-m+1)."""
    require_column(m, k)
    return _choose2(k - m + 1) - k * (k - h - m + 1)


def by_hook_exponent(m: int, k: int, h: int, l: int) -> int:
    """Summand l's exponent in the by-hook series, before a family's own
    terms: the least weight of a partition with an h-fixed hook of size k
    and horizontal span l in column m, whose row and the k-h-1 rows above
    hold parts >= m+l-1 and whose k-l rows below hold parts >= m."""
    return (m - 1) * (2 * k - h - l) + k + l * (k - h - 1)


def gf_t14_hooks_of_size_k(m: int, k: int, order: int) -> Iterator[Summand]:
    """Hooks of size k in column m of all partitions.

    The closed form is q^{km}/(q^k;q)_inf times a sum over the leg l of
    q^{-(l-1)(m-1)} (q^m;q)_{l-1} / ((q;q)_{l-1} (q;q)_{k-l}).  The
    negative powers never outweigh q^{km}: the summand exponents are
    km - (l-1)(m-1) >= k + m - 1 >= 1.
    """
    require_column(m)
    require_hook_size(k)
    if k >= order:
        return
    tail = inv_poch_factors(k, None)
    for l in range(1, k + 1):
        yield (
            k * m - (l - 1) * (m - 1),
            merge_factors(poch_factors(m, l - 1), inv_poch_factors(1, l - 1),
                          inv_poch_factors(1, k - l), tail),
        )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class TheoremId(str, Enum):
    """Stable identifiers for the verifiable identities."""

    T11_ClosedForm = "T11_ClosedForm"
    T12_ClosedForm = "T12_ClosedForm"
    T13_Shifted = "T13_Shifted"
    T14_HooksOfSizeK = "T14_HooksOfSizeK"
    FixedByPart_m1 = "FixedByPart_m1"
    MFixedByPart = "MFixedByPart"
    OddBySize = "OddBySize"
    DistinctBySize = "DistinctBySize"
    FixedByHook_m1 = "FixedByHook_m1"
    MFixedByHook = "MFixedByHook"
    OddByHook = "OddByHook"
    DistinctByHook = "DistinctByHook"
    OddDistinctByHook = "OddDistinctByHook"
    OddDistinctTotal = "OddDistinctTotal"


def _from_column(m: int) -> range:
    # A by-part theorem needs part size k >= m.
    return range(max(1, m), 9)


class BuilderSpec(NamedTuple):
    """One theorem's catalog row: its parameters, the partition family its
    coefficients count, the builder (called with ``order`` and the
    parameters by keyword, it returns the summand stream), the
    :class:`~fixedhooks.oracles.HookTally` table its counts come from, the
    comparisons its cases make ("oracle" is the plain series-vs-count
    check), the variants it supports, and its default grid of columns
    ``m``, sizes ``k(m)`` and fixedness values ``h(k)``.  A parameter the
    theorem does not take is unused."""

    params: tuple[str, ...]
    family: Family
    build: Callable[..., Iterator[Summand]] | None
    table: str
    checks: tuple[str, ...] = ("oracle",)
    variants: tuple[str, ...] = ()
    m: range = range(1, 5)
    k: Callable[[int | None], range] = lambda m: range(1, 9)
    h: Callable[[int | None], range] = lambda k: range(-3, k)


def _by_part_row(family: Family, variants: tuple[str, ...]) -> BuilderSpec:
    """The row of a by-part theorem: :func:`gf_by_part` for ``family``."""
    return BuilderSpec(("m", "k", "h"), family, partial(gf_by_part, family), "by_part",
                       variants=variants, k=_from_column)


def _by_hook_row(family: Family, checks: tuple[str, ...] = ("oracle",)) -> BuilderSpec:
    """The row of a by-hook theorem: :func:`gf_by_hook` for ``family``."""
    return BuilderSpec(("m", "k", "h"), family, partial(gf_by_hook, family), "by_hook", checks)


CATALOG: dict[TheoremId, BuilderSpec] = {
    TheoremId.T11_ClosedForm: BuilderSpec(
        ("m",), Family.ALL, gf_t11_closed_form, "by_hook", ("colored", "hook-sum")),
    TheoremId.T12_ClosedForm: BuilderSpec(
        ("m", "h"), Family.ALL, gf_t12_closed_form, "by_part", ("by-part", "restricted"),
        h=lambda k: range(-3, 4)),
    TheoremId.T13_Shifted: BuilderSpec(
        ("m", "k", "h"), Family.ALL, None, "by_part", variants=VARIANTS,
        m=range(1, 4), k=lambda m: range(m, 7), h=lambda k: range(-2, 3)),
    TheoremId.T14_HooksOfSizeK: BuilderSpec(
        ("m", "k"), Family.ALL, gf_t14_hooks_of_size_k, "by_hook", ("oracle", "h-aggregation"),
        m=range(1, 4), k=lambda m: range(1, 7)),
    TheoremId.FixedByPart_m1: BuilderSpec(("k", "h"), Family.ALL, gf_fixed_by_part_m1, "by_part"),
    TheoremId.MFixedByPart: _by_part_row(Family.ALL, ()),
    TheoremId.OddBySize: _by_part_row(Family.ODD, VARIANTS),
    TheoremId.DistinctBySize: _by_part_row(Family.DISTINCT, VARIANTS),
    TheoremId.FixedByHook_m1: BuilderSpec(("k", "h"), Family.ALL, gf_fixed_by_hook_m1, "by_hook"),
    TheoremId.MFixedByHook: _by_hook_row(Family.ALL),
    TheoremId.OddByHook: _by_hook_row(Family.ODD, ("oracle", "column-total")),
    TheoremId.DistinctByHook: _by_hook_row(Family.DISTINCT, ("oracle", "column-total")),
    TheoremId.OddDistinctByHook: _by_hook_row(Family.ODD_DISTINCT),
    TheoremId.OddDistinctTotal: BuilderSpec(
        ("k",), Family.ODD_DISTINCT, gf_odd_distinct_total, "hooks_total", variants=VARIANTS,
        k=lambda m: range(1, 7)),
}


def resolve_theorem(name: str) -> TheoremId:
    """Match a user-supplied tag: exact value, case-insensitive, or the short
    T11/T12/T13/T14 aliases."""
    lowered = name.lower()
    for tid in TheoremId:
        if tid.value.lower() == lowered:
            return tid
    aliases = {
        "t11": TheoremId.T11_ClosedForm,
        "t12": TheoremId.T12_ClosedForm,
        "t13": TheoremId.T13_Shifted,
        "t14": TheoremId.T14_HooksOfSizeK,
    }
    if lowered in aliases:
        return aliases[lowered]
    raise ValueError(f"unknown theorem tag {name!r}")


def takes(theorem: TheoremId) -> tuple[str, ...]:
    """The names ``theorem`` takes: its parameters, and "variant" when it
    has variants."""
    spec = CATALOG[theorem]
    return spec.params + ("variant",) if spec.variants else spec.params


def builder_args(theorem: TheoremId, variant: str | None = None, **given) -> dict:
    """The keyword arguments of ``theorem``'s builder: each parameter it
    takes, from ``given`` (m, k and h, None where not given), and the
    variant when one is given.

    Raises ValueError when the tag is not a :class:`TheoremId` value, the
    theorem has no builder, a parameter it takes is missing, or a name it
    does not take (see :func:`takes`) is given, the variant included.
    """
    theorem = TheoremId(theorem)
    spec = CATALOG[theorem]
    if spec.build is None:
        raise ValueError(f"{theorem.value} is an identity check, not a series builder")
    names = takes(theorem)
    for name, value in given.items():
        if value is not None and name not in names:
            raise ValueError(f"{theorem.value} does not take --{name}")
    kwargs = {}
    for name in spec.params:
        if given.get(name) is None:
            raise ValueError(f"{theorem.value} requires --{name}")
        kwargs[name] = given[name]
    if variant is not None:
        if "variant" not in names:
            raise ValueError(f"{theorem.value} has no variants")
        kwargs["variant"] = variant
    return kwargs


def build_series(
    theorem: TheoremId,
    order: int,
    m: int | None = None,
    k: int | None = None,
    h: int | None = None,
    variant: str | None = None,
) -> LaurentSeries:
    """The sum of the stream of the builder behind ``theorem``, called with
    exactly its parameters (see :func:`builder_args`, which raises
    ValueError on a bad set of them); a value the builder rejects raises
    ValueError too.
    """
    kwargs = builder_args(theorem, variant, m=m, k=k, h=h)
    return sum_summands(order, CATALOG[theorem].build(order=order, **kwargs))
