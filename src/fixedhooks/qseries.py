"""Exact truncated Laurent series in one variable q.

A :class:`LaurentSeries` knows its coefficients for every exponent below a
truncation order N and nothing above; all arithmetic propagates the largest
order the operands justify.  Coefficients are Python integers, so every
stored value is exact at any magnitude.

Every generating function here is a sum of products of binomials
``(1 - sign*q^a)^p``: the q-Pochhammer symbol
``(a; b)_n = prod_{i=0}^{n-1} (1 - a b^i)`` with ``a = +-q^j`` and
``b = q^d``, its reciprocal, and the Gaussian binomial
``binom(a, b)_q = (q;q)_a / ((q;q)_b (q;q)_{a-b})``.  The module gives each
of them in two forms:

* product form: :func:`poch_factors`, :func:`inv_poch_factors` and
  :func:`gauss_factors` return a factor multiset (:data:`Factors`), a short
  tuple of Pochhammer runs ``(sign, base_exp, step, count, power)``; a
  Gaussian binomial is one numerator and one denominator run.  They take
  no order: a run keeps its whole count, None for an infinite product.
  :func:`factor_change` turns two multisets into the single binomials
  (:data:`Binomials`) below a window's width that lead from one product to
  the other, in time proportional to the runs and the binomials that
  changed; it is the one cut of every run, finite or not.
  :func:`apply_factors` multiplies a coefficient list by them in place, one
  O(width) pass per binomial;
* dense form: :func:`poch`, :func:`inv_poch` and :func:`gauss_binomial`
  return cached :class:`LaurentSeries`.  They serve the public API and the
  tests.

:func:`sum_summands` turns a stream of :data:`Summand` ``(e, factors)``
into the series of sum q^e * prod(factors), by Horner's rule over the
binomials in which neighbouring summands differ; no two series are ever
multiplied.  The series builders of :mod:`fixedhooks.genfun` are such
streams, and each dense kernel is the sum of one summand, its multiset at
q^0, so both forms are computed by the same passes.  The constructors check
the sign, step and count of every Pochhammer symbol and the step of every
Gaussian binomial, so both forms reject the same bad parameters; a negative
count of a reciprocal, or a Gaussian binomial with b < 0 or b > a, is the
zero product (None), which sums to the zero series.  The three
product-form constructors are memoised by ``functools.lru_cache`` with a
bounded size (4096 entries each), since the builders ask for the same few
hundred runs for every m and h of a grid; a call that raises caches
nothing.  The dense kernels keep unbounded caches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from operator import add, sub
from typing import Iterable, Iterator


class LaurentSeries:
    """Truncated formal Laurent series with exact integer coefficients.

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``; exponents at or
    above ``order`` are unknown.  Instances are immutable; leading zero
    coefficients are normalized away (the zero-so-far series has
    ``min_exp == order`` and no stored coefficients).
    """

    __slots__ = ("min_exp", "coeffs", "order")

    def __init__(self, min_exp: int, coeffs: Iterable[int], order: int):
        cs = list(coeffs)
        if min_exp + len(cs) > order:
            raise ValueError("more coefficients than the truncation order admits")
        cs.extend([0] * (order - min_exp - len(cs)))
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        self.min_exp = min_exp + lead
        self.coeffs = tuple(cs[lead:])
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(order, (), order)

    # -- inspection --------------------------------------------------------

    def coefficient(self, e: int) -> int:
        """Coefficient of q**e; raises for exponents at or past the order."""
        return self.coefficients(e, e + 1)[0]

    def coefficients(self, start: int, stop: int) -> list[int]:
        """Coefficients of q**start .. q**(stop-1); ``stop`` must be <= order."""
        if start < stop and stop > self.order:
            first = max(start, self.order)
            raise ValueError(f"exponent {first} is beyond the truncation order {self.order}")
        lo, hi = (max(e - self.min_exp, 0) for e in (start, stop))
        return [0] * (min(stop, self.min_exp) - start) + list(self.coeffs[lo:hi])

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) for the nonzero known terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def valuation(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, or None if zero so far.
        Leading zeros are never stored, so this is the first stored exponent."""
        return self.min_exp if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.min_exp == other.min_exp
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.min_exp, self.coeffs, self.order))

    def __repr__(self):
        terms = []
        for e, c in self.items():
            if len(terms) == 8:
                terms.append("...")
                break
            terms.append(f"{c}*q^{e}" if e else str(c))
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(q^{self.order})>"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp, order)
        out = [0] * (order - lo)
        for s in (self, other):
            base = s.min_exp - lo
            for i, c in enumerate(s.coeffs):
                if c and base + i < len(out):
                    out[base + i] += c
        return LaurentSeries(lo, out, order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        lo = min(self.min_exp + other.min_exp, order)
        length = order - lo
        out = [0] * length
        a, b = self, other
        if len(a.coeffs) > len(b.coeffs):
            a, b = b, a
        bc = b.coeffs
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            off = a.min_exp + b.min_exp + i - lo
            lim = min(len(bc), length - off)
            for j in range(lim):
                cb = bc[j]
                if cb:
                    out[off + j] += ca * cb
        return LaurentSeries(lo, out, order)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by q**e; exponents and order all move by e."""
        return LaurentSeries(self.min_exp + e, self.coeffs, self.order + e)

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget coefficients at exponents >= order (order may only shrink)."""
        if order > self.order:
            raise ValueError(f"cannot extend knowledge from O(q^{self.order}) to O(q^{order})")
        if order >= self.order:
            return self
        keep = max(0, order - self.min_exp)
        return LaurentSeries(min(self.min_exp, order), self.coeffs[:keep], order)


Run = tuple[int, int, int, int | None, int]
"""A Pochhammer run ``(sign, base_exp, step, count, power)``: the product
``(sign*q^base_exp; q^step)_count ** power``, that is ``(1 - sign*q^a)**power``
for a = base_exp, base_exp + step, ... (count exponents), with ``sign`` in
{+1, -1}, ``step >= 1`` and ``count >= 0``, or count None for every
exponent of the residue class, an infinite product, with ``base_exp >= 1``.
:func:`factor_change` cuts either kind at the window."""

Factors = tuple[Run, ...]
"""A factor multiset: the product of its runs.  ``None`` in place of a
multiset stands for the zero product."""

Binomials = dict[tuple[int, int], int]
"""Single binomials: ``{(sign, a): p}`` stands for the product of
``(1 - sign*q^a)**p`` over its keys, p != 0."""

Summand = tuple[int, Factors | None]
"""``(e, factors)``: q^e times the product of ``factors``; None is zero."""


def merge_factors(*parts: Factors | None) -> Factors | None:
    """The product of several multisets (None, the zero product, absorbs)."""
    merged: Factors = ()
    for part in parts:
        if part is None:
            return None
        merged += part
    return merged


def _pochhammer(base_exp: int, count: int | None, step: int, sign: int, power: int) -> Factors | None:
    """``(sign*q^base_exp; q^step)_count ** power`` as one run, power +-1,
    after checking sign, step and count once; a negative count is an error
    for power 1 and the zero product (None) for power -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if step < 1:
        raise ValueError("step must be >= 1")
    if count is None:
        if base_exp < 1:
            raise ValueError("infinite products need base_exp >= 1")
    elif count < 0:
        if power > 0:
            raise ValueError("count must be non-negative")
        return None
    return ((sign, base_exp, step, count, power),)


# Entries kept by each product-form constructor's cache.  They are pure
# functions of a few small ints that return immutable tuples; typed keys
# keep an equal float from picking up an int's run.
_CONSTRUCTOR_CACHE = 4096


@lru_cache(maxsize=_CONSTRUCTOR_CACHE, typed=True)
def poch_factors(base_exp: int, count: int | None, *, step: int = 1, sign: int = 1) -> Factors:
    """``(sign*q^base_exp; q^step)_count`` as one run: ``(1 - q^(base_exp
    + step*i))`` for sign +1 and ``(1 + q^(base_exp + step*i))`` for sign -1,
    i = 0 .. count-1.  The infinite product (count None) needs
    ``base_exp >= 1``.  No run is cut here: :func:`factor_change` cuts every
    run, finite or not, at the window.
    """
    return _pochhammer(base_exp, count, step, sign, 1)


@lru_cache(maxsize=_CONSTRUCTOR_CACHE, typed=True)
def inv_poch_factors(base_exp: int, count: int | None, *, step: int = 1, sign: int = 1) -> Factors | None:
    """``1 / (sign*q^base_exp; q^step)_count`` as one run; None (zero) for a
    negative count, as for :func:`inv_poch`."""
    return _pochhammer(base_exp, count, step, sign, -1)


@lru_cache(maxsize=_CONSTRUCTOR_CACHE, typed=True)
def gauss_factors(a: int, b: int, step: int = 1) -> Factors | None:
    """The Gaussian binomial in q**step as a numerator and a denominator run.
    Of ``(q;q)_a / ((q;q)_b (q;q)_{a-b})`` only the numerator factors above
    max(b, a-b) and the denominator factors up to min(b, a-b) survive.
    None (zero) unless 0 <= b <= a; b == 0 gives two empty runs whatever
    ``a`` is.  The step must be >= 1."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if b == 0:
        a = max(a, 0)
    elif b < 0 or b > a:
        return None
    low, high = min(b, a - b), max(b, a - b)
    return ((1, step * (high + 1), step, a - high, 1), (1, step, step, low, -1))


def factor_change(old: Factors, new: Factors, width: int) -> Binomials:
    """The binomials below q^width that turn the product of ``old`` into
    that of ``new``.  This is the one cut of every run: a run of count
    None, an infinite product, holds every exponent of its residue class
    below the window.

    The runs are paired by position.  Two paired runs with the same sign,
    step and power whose bases agree mod step cover two intervals
    [b1, e1) and [b2, e2) of one residue class; the new one less the old
    one is the range between b2 and b1 and the range between e1 and e2,
    each counted with the sign that says which run holds it.  Any other
    pair trades all of the old run for all of the new one.
    """
    change: Binomials = {}
    get = change.get
    for was, now in zip_longest(old, new):
        if was == now:
            continue
        if was and now:
            sign, b1, step, c1, power = was
            sign2, b2, step2, c2, power2 = now
            if sign == sign2 and step == step2 and power == power2 and (b1 - b2) % step == 0:
                e1 = width if c1 is None else b1 + step * c1
                e2 = width if c2 is None else b2 + step * c2
                p = power
                if b1 < b2:
                    b1, b2, p = b2, b1, -power
                for a in range(b2, b1 if b1 < width else width, step):
                    change[sign, a] = get((sign, a), 0) + p
                p = power
                if e2 < e1:
                    e1, e2, p = e2, e1, -power
                for a in range(e1, e2 if e2 < width else width, step):
                    change[sign, a] = get((sign, a), 0) + p
                continue
        for run, gained in ((was, -1), (now, 1)):
            if run:
                sign, base, step, count, power = run
                stop = width if count is None else base + step * count
                for a in range(base, stop if stop < width else width, step):
                    change[sign, a] = get((sign, a), 0) + gained * power
    return {key: p for key, p in change.items() if p}


def apply_factors(coeffs: list[int], binomials: Binomials) -> None:
    """Multiply the power series ``coeffs`` (exponents 0 .. width-1) in place
    by the product of ``binomials``, exactly below q^width.

    Multiplying by ``1 - s*q^a`` is ``c[x] -= s*c[x-a]`` on the old values,
    one slice pass; dividing by it is the ascending recurrence
    ``c[x] += s*c[x-a]`` on the new values.  Binomials with a >= width leave
    the window alone.
    """
    width = len(coeffs)
    for (sign, a), power in binomials.items():
        if a >= width:
            continue
        if a < 0 or (a == 0 and power < 0):
            raise ValueError(f"(1 - {sign}*q^{a})^{power} is not a power series")
        if power > 0:
            op = sub if sign == 1 else add
            for _ in range(power):
                coeffs[a:] = map(op, coeffs[a:], coeffs[:width - a])
        else:
            for _ in range(-power):
                for x in range(a, width):
                    c = coeffs[x - a]
                    if c:
                        coeffs[x] += sign * c


def sum_summands(order: int, summands: Iterable[Summand]) -> LaurentSeries:
    """Sum of q^e * prod(factors) over the summands, exact below ``order``.
    A summand at or past the order, or with the zero product (None) for its
    factors, adds nothing and is skipped.

    The sum is taken by Horner's rule from the last summand back.  With P_i
    the product of summand i's factors, ``acc`` holds
    sum_{j >= i} q^(e_j) P_j / P_i on the window [min_{j >= i} e_j, order).
    Stepping back to summand i - 1 multiplies it by P_i / P_(i-1), the
    binomials below its width by which the two summands' runs differ (see
    :func:`factor_change`), and adds q^(e_(i-1)), a single coefficient.  The
    first summand's product is applied last, so a run that every summand
    shares is expanded once.  Every run, an infinite one too, is cut at the
    window [min e, order), so the sum is exact whatever the least exponent.
    """
    terms = [t for t in summands if t[0] < order and t[1] is not None]
    if not terms:
        return LaurentSeries.zero(order)
    (low, after), rest = terms[-1], terms[:-1]
    acc = [1] + [0] * (order - low - 1)
    for e, factors in reversed(rest):
        apply_factors(acc, factor_change(factors, after, len(acc)))
        if e < low:
            acc[:0] = [0] * (low - e)
            low = e
        acc[e - low] += 1
        after = factors
    apply_factors(acc, factor_change((), after, len(acc)))
    return LaurentSeries(low, acc, order)


# The dense kernels: each product summed as one summand at q^0, cached whole.
@lru_cache(maxsize=None)
def _poch_coeffs(sign: int, base: int, step: int, count: int | None, order: int) -> LaurentSeries:
    return sum_summands(order, [(0, poch_factors(base, count, step=step, sign=sign))])


@lru_cache(maxsize=None)
def _inv_poch_coeffs(sign: int, base: int, step: int, count: int | None, order: int) -> LaurentSeries:
    return sum_summands(order, [(0, inv_poch_factors(base, count, step=step, sign=sign))])


@lru_cache(maxsize=None)
def _gauss_coeffs(a: int, b: int, step: int, order: int) -> LaurentSeries:
    return sum_summands(order, [(0, gauss_factors(a, b, step))])


def poch(base_exp: int, count: int | None, order: int, step: int = 1, sign: int = 1) -> LaurentSeries:
    """The q-Pochhammer symbol ``(sign*q^base_exp; q^step)_count`` truncated
    at ``order`` (see :func:`poch_factors`); count 0 gives 1.

    The infinite product (count None) requires ``base_exp >= 1`` so that
    successive factors touch ever-higher exponents.
    """
    return _poch_coeffs(sign, base_exp, step, count, order)


def inv_poch(base_exp: int, count: int | None, order: int, step: int = 1, sign: int = 1) -> LaurentSeries:
    """Reciprocal Pochhammer ``1 / (sign*q^base_exp; q^step)_count``.

    By the usual convention a negative ``count`` yields the zero series (the
    reciprocal of a pole), which is what makes sums over shifting row counts
    terminate cleanly.  Sign and step are checked first.
    """
    return _inv_poch_coeffs(sign, base_exp, step, count, order)


def gauss_binomial(a: int, b: int, step: int = 1, order: int = 64) -> LaurentSeries:
    """Gaussian binomial coefficient as a truncated series in q**step, for
    any step >= 1 (see :func:`gauss_factors`, which checks it).

    For 0 <= b <= a this is the generating polynomial for partitions into at
    most b parts each at most a - b (exact once ``order`` exceeds the degree
    ``step*b*(a-b)``).  For b < 0 or b > a it is the zero series, and b == 0
    gives 1 whatever ``a`` is.
    """
    return _gauss_coeffs(a, b, step, order)
