from collections import Counter
from math import comb

from hypothesis import given, settings, strategies as st
import pytest

from fixedhooks.partitions import enumerate_parts, partition_count
from fixedhooks.qseries import (
    LaurentSeries,
    apply_factors,
    factor_change,
    gauss_binomial,
    gauss_factors,
    inv_poch,
    inv_poch_factors,
    merge_factors,
    poch,
    poch_factors,
)


@st.composite
def series_strategy(draw):
    min_exp = draw(st.integers(-10, 10))
    coeffs = draw(st.lists(st.integers(-9, 9), max_size=12))
    slack = draw(st.integers(0, 8))
    return LaurentSeries(min_exp, coeffs, min_exp + len(coeffs) + slack)


def assert_agree(a: LaurentSeries, b: LaurentSeries):
    """Coefficientwise equality on the range both series know."""
    lo = min(a.min_exp, b.min_exp)
    hi = min(a.order, b.order)
    for e in range(lo, hi):
        assert a.coefficient(e) == b.coefficient(e), f"differ at q^{e}"


def poly(pairs, order):
    s = LaurentSeries.zero(order)
    for e, c in pairs:
        s = s + LaurentSeries(e, (c,), order)
    return s


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------


def test_add_examples():
    one_plus_q = poly([(0, 1), (1, 1)], 10)
    one_minus_q = poly([(0, 1), (1, -1)], 10)
    assert list((one_plus_q + one_minus_q).items()) == [(0, 2)]
    f = poly([(2, 5), (7, -1)], 12)
    assert f + LaurentSeries.zero(12) == f
    mixed = LaurentSeries(-1, (1,), 9) + LaurentSeries(1, (1,), 9)
    assert mixed.min_exp == -1
    assert list(mixed.items()) == [(-1, 1), (1, 1)]


def test_mul_examples():
    one_plus_q = poly([(0, 1), (1, 1)], 10)
    one_minus_q = poly([(0, 1), (1, -1)], 10)
    assert list((one_plus_q * one_minus_q).items()) == [(0, 1), (2, -1)]
    assert list(
        (LaurentSeries(-2, (1,), 6) * LaurentSeries(3, (1,), 6)).items()
    ) == [(1, 1)]
    # only two series multiply: there is no scalar product
    with pytest.raises(TypeError):
        one_plus_q * 2
    with pytest.raises(TypeError):
        2 * one_plus_q


def test_mul_truncation_order():
    # unknown tail of f enters at f.order + g.min_exp
    f = LaurentSeries(0, (1, 1), 2)
    g = LaurentSeries(3, (1,), 9)
    assert (f * g).order == 5
    assert (g * f).order == 5


def test_coefficient_access_beyond_order():
    f = poly([(2, 1)], 5)
    assert f.coefficient(4) == 0
    assert f.coefficient(1) == 0  # below the valuation
    assert f.coefficient(-3) == 0
    with pytest.raises(ValueError, match="exponent 5 is beyond the truncation order 5"):
        f.coefficient(5)


@settings(max_examples=200)
@given(series_strategy(), st.integers(-14, 30), st.integers(-14, 30))
def test_coefficients_is_a_zero_padded_slice(f, start, stop):
    stored = dict(zip(range(f.min_exp, f.order), f.coeffs))
    if start < stop and stop > f.order:
        with pytest.raises(ValueError, match="beyond the truncation order"):
            f.coefficients(start, stop)
    else:
        assert f.coefficients(start, stop) == [stored.get(e, 0) for e in range(start, stop)]
    known = range(start, min(stop, f.order))
    assert [f.coefficient(e) for e in known] == [stored.get(e, 0) for e in known]


@settings(max_examples=200)
@given(series_strategy(), series_strategy())
def test_valuation_is_the_first_nonzero_exponent(a, b):
    for f in (a, b, a + b, a - a, a * b):
        first = next((e for e, _ in f.items()), None)
        assert f.valuation() == first
        assert f.is_zero() == (first is None)


def test_shift_examples():
    assert list(LaurentSeries(0, (1,), 6).shift(5).items()) == [(5, 1)]
    assert list(LaurentSeries(1, (1,), 6).shift(-1).items()) == [(0, 1)]
    f = poly([(0, 2), (3, 1)], 9)
    assert f.shift(3).shift(-3) == f


def test_truncate_only_shrinks():
    f = poly([(0, 1), (4, 2)], 9)
    assert list(f.truncate(3).items()) == [(0, 1)]
    with pytest.raises(ValueError):
        f.truncate(12)


# ---------------------------------------------------------------------------
# ring axioms (randomized)
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(series_strategy(), series_strategy())
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=200)
@given(series_strategy(), series_strategy(), series_strategy())
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200)
@given(series_strategy(), series_strategy())
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=200)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_associates(a, b, c):
    assert_agree((a * b) * c, a * (b * c))


@settings(max_examples=200)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_distributes_over_add(a, b, c):
    assert_agree(a * (b + c), a * b + a * c)


@settings(max_examples=150)
@given(series_strategy())
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def test_pochhammer_times_reciprocal_is_one():
    assert poch(1, 2, 16) * inv_poch(1, 2, 16) == LaurentSeries(0, (1,), 16)


def test_poch_empty_product():
    assert poch(1, 0, 8) == LaurentSeries(0, (1,), 8)


def test_poch_qq3():
    assert list(poch(1, 3, 8).items()) == [
        (0, 1), (1, -1), (2, -1), (4, 1), (5, 1), (6, -1),
    ]


def test_poch_negative_sign():
    # (-q; q)_2 = (1+q)(1+q^2)
    assert list(poch(1, 2, 8, sign=-1).items()) == [(0, 1), (1, 1), (2, 1), (3, 1)]


def test_poch_infinite_requires_positive_base():
    with pytest.raises(ValueError):
        poch(0, None, 10)
    with pytest.raises(ValueError):
        poch(-2, None, 10)
    with pytest.raises(ValueError):
        inv_poch(0, None, 10)


def test_poch_rejects_bad_sign_step_and_count():
    # poch_factors checks every Pochhammer symbol, whatever form it is built in
    for kwargs in ({"sign": 2}, {"sign": 0}, {"step": 0}, {"step": -1}):
        with pytest.raises(ValueError):
            poch(1, 3, 10, **kwargs)
        with pytest.raises(ValueError):
            inv_poch(1, 3, 10, **kwargs)
        with pytest.raises(ValueError):
            poch_factors(1, 3, **kwargs)
    with pytest.raises(ValueError):
        poch(1, -1, 10)
    with pytest.raises(ValueError):
        poch_factors(1, -1)


def test_inv_poch_negative_count_is_zero():
    assert inv_poch(1, -1, 10).is_zero()
    assert inv_poch_factors(1, -1) is None


def test_inv_poch_checks_sign_and_step_before_a_negative_count():
    for kwargs in ({"sign": 2}, {"sign": 0}, {"step": 0}, {"step": -1}):
        with pytest.raises(ValueError):
            inv_poch(1, -1, 10, **kwargs)
        with pytest.raises(ValueError):
            inv_poch_factors(1, -1, **kwargs)


def test_inv_poch_matches_reciprocal():
    # Multiplication, not the in-place division that fills both kernels, is
    # the independent reference.
    for base, count, step, sign in [(1, 3, 1, 1), (2, 2, 2, 1), (1, 4, 2, -1), (3, None, 1, 1)]:
        product = poch(base, count, 20, step=step, sign=sign) * \
            inv_poch(base, count, 20, step=step, sign=sign)
        assert product == LaurentSeries(0, (1,), 20)


def test_partition_numbers_from_infinite_pochhammer():
    series = inv_poch(1, None, 41)
    for n in range(41):
        assert series.coefficient(n) == partition_count(n)
    assert series.coefficient(10) == 42


def test_truncation_consistency():
    for build in (
        lambda N: poch(1, 5, N),
        lambda N: poch(1, None, N, step=2, sign=-1),
        lambda N: inv_poch(2, None, N),
        lambda N: gauss_binomial(6, 3, 1, N),
    ):
        low, high = build(12), build(25)
        assert high.truncate(12) == low


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------


def test_gauss_small_cases():
    assert list(gauss_binomial(2, 1, 1, 8).items()) == [(0, 1), (1, 1)]
    assert list(gauss_binomial(4, 2, 1, 10).items()) == [
        (0, 1), (1, 1), (2, 2), (3, 1), (4, 1),
    ]
    assert gauss_binomial(3, 5, 1, 8).is_zero()
    assert gauss_binomial(3, -1, 1, 8).is_zero()
    assert gauss_binomial(-2, 0, 1, 8) == LaurentSeries(0, (1,), 8)
    # any step >= 1, as in gauss_factors
    assert list(gauss_binomial(3, 1, step=3, order=10).items()) == [(0, 1), (3, 1), (6, 1)]


def test_gauss_step_two_is_substitution():
    plain = gauss_binomial(5, 2, 1, 15)
    for step in (2, 3):
        stretched = gauss_binomial(5, 2, step, 15 * step)
        for e, c in plain.items():
            assert stretched.coefficient(step * e) == c
        assert all(e % step == 0 for e, _ in stretched.items())


def test_gauss_binomial_rejects_a_step_below_one():
    # the dense form checks its step through gauss_factors, before its order
    # or the range of b can return early
    for a, b, order in ((3, 1, 10), (3, 5, 10), (3, 0, 10), (3, 1, 0)):
        for step in (0, -1):
            with pytest.raises(ValueError, match="step must be >= 1"):
                gauss_binomial(a, b, step, order)


def test_gauss_polynomial_properties():
    # non-negative, degree b(a-b), palindromic
    for a in range(13):
        for b in range(a + 1):
            degree = b * (a - b)
            g = gauss_binomial(a, b, 1, degree + 2)
            coeffs = g.coefficients(0, degree + 1)
            assert g.coefficient(degree + 1) == 0
            assert coeffs[-1] == 1 and coeffs[0] == 1
            assert all(c >= 0 for c in coeffs)
            assert coeffs == coeffs[::-1]


def test_gauss_counts_partitions_in_a_box():
    for a in range(2, 11):
        for b in range(a + 1):
            degree = b * (a - b)
            g = gauss_binomial(a, b, 1, degree + 1)
            for weight in range(degree + 1):
                boxed = sum(
                    1
                    for parts in enumerate_parts(weight, max_part=a - b)
                    if len(parts) <= b
                )
                assert g.coefficient(weight) == boxed


# ---------------------------------------------------------------------------
# product form: factor multisets applied in place
# ---------------------------------------------------------------------------


def expand(runs, width=0):
    """The single binomials {(sign, a): p} of a run tuple, exponent by
    exponent; a run of count None, an infinite product, holds its exponents
    below ``width``."""
    out = Counter()
    for sign, base, step, count, power in runs:
        stop = width if count is None else base + step * count
        for a in range(base, stop, step):
            out[sign, a] += power
    return {key: p for key, p in out.items() if p}


def in_place(coeffs, binomials):
    out = list(coeffs)
    apply_factors(out, binomials)
    return out


def dense_product(coeffs, dense):
    """The coefficients of (coeffs as a series) * dense below its width."""
    width = len(coeffs)
    return (LaurentSeries(0, coeffs, width) * dense).coefficients(0, width)


@settings(max_examples=300)
@given(
    st.sampled_from([1, -1]),
    st.integers(1, 90),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=80),
)
def test_binomial_power_in_place_equals_dense_product(sign, a, power, coeffs):
    width = len(coeffs)
    one = poch(a, 1, width, sign=sign) if power > 0 else inv_poch(a, 1, width, sign=sign)
    dense = LaurentSeries(0, (1,), width)
    for _ in range(abs(power)):
        dense = dense * one
    assert in_place(coeffs, {(sign, a): power}) == dense_product(coeffs, dense)


@settings(max_examples=300)
@given(
    st.sampled_from([1, -1]),
    st.integers(1, 12),
    st.one_of(st.none(), st.integers(-1, 12)),
    st.integers(1, 3),
    st.lists(st.integers(-50, 50), min_size=1, max_size=80),
)
def test_pochhammer_multisets_equal_dense_kernels(sign, base, count, step, coeffs):
    width = len(coeffs)
    inverse = inv_poch_factors(base, count, step=step, sign=sign)
    if count is not None and count < 0:
        assert inverse is None and inv_poch(base, count, width, step, sign).is_zero()
        return
    assert in_place(coeffs, expand(poch_factors(base, count, step=step, sign=sign), width)) == \
        dense_product(coeffs, poch(base, count, width, step, sign))
    assert in_place(coeffs, expand(inverse, width)) == dense_product(
        coeffs, inv_poch(base, count, width, step, sign))


@settings(max_examples=300)
@given(
    st.integers(-2, 14),
    st.integers(-2, 14),
    st.sampled_from([1, 2, 3]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=80),
)
def test_gauss_multiset_equals_dense_kernel(a, b, step, coeffs):
    dense = gauss_binomial(a, b, step, len(coeffs))
    factors = gauss_factors(a, b, step)
    if factors is None:
        assert dense.is_zero()
    else:
        assert in_place(coeffs, expand(factors)) == dense_product(coeffs, dense)


def test_merge_factors_cancels_and_absorbs_zero():
    # [4 choose 2] / (1 - q^3)(1 - q^4) * (q;q)_2 = 1
    merged = merge_factors(gauss_factors(4, 2), inv_poch_factors(3, 2), poch_factors(1, 2))
    assert expand(merged) == {}
    assert merge_factors(poch_factors(1, 3), None) is None
    assert expand(merge_factors(poch_factors(1, 2), poch_factors(2, 1))) == {(1, 1): 1, (1, 2): 2}


# A run drawn near another: the same or a moved base and count, finite or
# infinite (None), and the same or another sign, step and power.
counts = st.one_of(st.none(), st.integers(0, 15))
runs = st.tuples(
    st.sampled_from([1, -1]),
    st.integers(0, 40),
    st.integers(1, 4),
    counts,
    st.sampled_from([-2, -1, 1, 2]),
)


@st.composite
def run_pairs(draw):
    """(old, new): run tuples of lengths 0..4 whose paired runs mostly share
    sign, step and power, so that both the end ranges and the fallback run."""
    old = draw(st.lists(runs, max_size=4))
    new = []
    for sign, base, step, count, power in old[:draw(st.integers(0, len(old)))]:
        kind = draw(st.sampled_from(["same", "moved", "infinite", "mismatched"]))
        if kind in ("moved", "infinite"):
            base = max(0, base + step * draw(st.integers(-6, 6)) + draw(st.sampled_from([0, 0, 1])))
        if kind == "moved":
            count = draw(counts) if count is None else max(0, count + draw(st.integers(-6, 6)))
        elif kind == "infinite":
            count = None
        elif kind == "mismatched":
            sign, base, step, count, power = draw(runs)
        new.append((sign, base, step, count, power))
    new += draw(st.lists(runs, max_size=2))
    return tuple(old), tuple(new)


@settings(max_examples=500)
@given(run_pairs(), st.integers(0, 70))
def test_factor_change_is_the_difference_of_the_expanded_multisets(pair, width):
    old, new = pair
    want = Counter(expand(new, width))
    want.subtract(expand(old, width))
    want = {key: p for key, p in want.items() if p and key[1] < width}
    assert factor_change(old, new, width) == want


def test_factor_change_keeps_only_the_moved_ends():
    # (q^3; q^2)_4 -> (q^5; q^2)_5: q^3 leaves, q^11 and q^13 arrive.
    assert factor_change(((1, 3, 2, 4, 1),), ((1, 5, 2, 5, 1),), 40) == \
        {(1, 3): -1, (1, 11): 1, (1, 13): 1}
    assert factor_change(((1, 3, 2, 4, 1),), ((1, 5, 2, 5, 1),), 12) == \
        {(1, 3): -1, (1, 11): 1}
    assert factor_change((), gauss_factors(5, 2), 9) == {(1, 4): 1, (1, 5): 1, (1, 1): -1,
                                                         (1, 2): -1}


def binomial_power(sign, a, power, width):
    """(1 - sign*q^a)^power below q^width from the binomial series, for a
    reference that shares no code with the in-place kernels."""
    dense = [0] * width
    k = abs(power)
    for j in range((width - 1) // a + 1):
        ways = comb(k, j) * (-1) ** j if power > 0 else comb(j + k - 1, k - 1)
        dense[a * j] += ways * sign ** j
    return LaurentSeries(0, dense, width)


@pytest.mark.parametrize("a, width", [
    (5, 24), (5, 25), (5, 26),  # a*a = width + 1, width, width - 1
    (7, 48), (7, 49), (7, 50),
    (1, 64), (2, 64),  # the longest residue classes
    (9, 9), (12, 9),  # a >= width leaves the window alone
])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("power", [-2, -1, 1, 2])
def test_apply_factors_at_the_kernel_boundaries_equals_dense_product(a, width, sign, power):
    # both kernels (the slice map for a product, the ascending recurrence
    # for a quotient) where a residue class mod a is about a long, where
    # the classes are longest, and past the window, against the dense product
    coeffs = [(7 * x * x - 3 * x + 2) % 11 - 5 for x in range(width)]
    want = dense_product(coeffs, binomial_power(sign, a, power, width))
    assert in_place(coeffs, {(sign, a): power}) == want
    if a >= width:
        assert want == coeffs


@pytest.mark.parametrize("build, args, kwargs", [
    (poch_factors, (1, 3), {"sign": 2}),
    (poch_factors, (1, 3), {"step": 0}),
    (poch_factors, (1, -1), {}),
    (poch_factors, (0, None), {}),
    (poch_factors, (1, None), {"step": 0}),
    (inv_poch_factors, (1, 3), {"sign": 0}),
    (inv_poch_factors, (1, -1), {"step": -1}),
    (inv_poch_factors, (-1, None), {}),
    # a gauss_factors step below 1 once gave runs at negative exponents
    # (step -1) or failed only later, inside factor_change (step 0)
    (gauss_factors, (3, 1), {"step": 0}),
    (gauss_factors, (3, 1), {"step": -1}),
    (gauss_factors, (3, 5), {"step": 0}),
])
def test_cached_constructors_raise_on_every_repeated_bad_call(build, args, kwargs):
    for _ in range(3):
        with pytest.raises(ValueError):
            build(*args, **kwargs)


def test_cached_constructors_agree_across_spellings():
    assert poch_factors(2, 4, step=2, sign=-1) == \
        poch_factors(2, 4, sign=-1, step=2) == \
        poch_factors(base_exp=2, count=4, step=2, sign=-1)
    assert poch_factors(1, 3) == poch_factors(1, 3, step=1, sign=1)
    assert inv_poch_factors(3, 5, step=2, sign=-1) == \
        inv_poch_factors(count=5, base_exp=3, sign=-1, step=2)
    assert inv_poch_factors(1, None) == inv_poch_factors(1, None, step=1)
    assert inv_poch_factors(1, -1, step=2) is inv_poch_factors(1, -1, step=2, sign=1) is None
    # step and sign are keyword-only, so a stale order is not read as a step
    with pytest.raises(TypeError):
        poch_factors(2, 6, 30)
    with pytest.raises(TypeError):
        inv_poch_factors(1, None, 20)
    assert gauss_factors(6, 2, 2) == gauss_factors(6, 2, step=2) == gauss_factors(a=6, b=2, step=2)
    assert gauss_factors(6, 2) == gauss_factors(6, 2, 1)


def test_factor_change_cuts_every_run_at_the_window():
    # a run keeps its whole count, None for an infinite product, and
    # factor_change cuts either kind at the width it is given
    assert poch_factors(2, 6) == ((1, 2, 1, 6, 1),)
    assert inv_poch_factors(3, 4, step=2, sign=-1) == ((-1, 3, 2, 4, -1),)
    assert factor_change((), poch_factors(2, 6), 5) == {(1, 2): 1, (1, 3): 1, (1, 4): 1}
    assert inv_poch_factors(2, None) == ((1, 2, 1, None, -1),)
    assert factor_change((), inv_poch_factors(2, None), 5) == {(1, 2): -1, (1, 3): -1, (1, 4): -1}
    # an infinite run that moves from q^2 to q^4 drops q^2 and q^3 only
    assert factor_change(inv_poch_factors(2, None), inv_poch_factors(4, None), 9) == \
        {(1, 2): 1, (1, 3): 1}
    # an infinite run that becomes (q^2; q)_3 leaves q^5 .. q^8
    assert factor_change(inv_poch_factors(2, None), inv_poch_factors(2, 3), 9) == \
        {(1, a): 1 for a in range(5, 9)}


def test_cached_constructors_keep_types_apart():
    # a float base gets a run of its own, not the cached int run, and fails
    # in range() once factor_change cuts it
    assert poch_factors(1, 3) == ((1, 1, 1, 3, 1),)
    assert type(poch_factors(1.0, 3)[0][1]) is float
    with pytest.raises(TypeError):
        factor_change((), poch_factors(1.0, 3), 10)


def test_apply_factors_rejects_poles_and_negative_exponents():
    with pytest.raises(ValueError):
        apply_factors([1, 0, 0], {(1, 0): -1})
    with pytest.raises(ValueError):
        apply_factors([1, 0, 0], {(1, -1): 1})
    with pytest.raises(ValueError):
        poch_factors(0, None)
