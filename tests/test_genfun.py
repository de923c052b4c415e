import inspect
from itertools import islice

import pytest

from fixedhooks.partitions import Family
from fixedhooks.verify import GridSpec, build_grid
from fixedhooks.oracles import (
    count_colored_thm11,
    count_fixed_hooks,
    count_hooks_of_size,
    count_restricted_thm12,
    hook_tally,
)
from fixedhooks.qseries import (
    LaurentSeries,
    factor_change,
    gauss_binomial,
    gauss_factors,
    inv_poch,
    inv_poch_factors,
    merge_factors,
    poch,
    poch_factors,
)
from fixedhooks.genfun import (
    CATALOG,
    FORMS,
    TheoremId,
    build_series,
    gf_by_hook,
    gf_by_part,
    gf_fixed_by_hook_m1,
    gf_fixed_by_part_m1,
    gf_mfixed_by_part,
    gf_odd_distinct_total,
    gf_t11_closed_form,
    gf_t12_closed_form,
    gf_t14_hooks_of_size_k,
    resolve_theorem,
    sum_summands,
    t13_weight_shift,
)
from census_anchors import check_by_part_rule

N = 16


def summed(build, *args, **kwargs):
    """The series of a builder's summand stream, summed at the order the
    builder is called with."""
    order = inspect.signature(build).bind(*args, **kwargs).arguments["order"]
    return sum_summands(order, build(*args, **kwargs))


def assert_counts(series, oracle, order=N):
    for n in range(min(0, series.min_exp), order):
        expected = oracle(n) if n >= 0 else 0
        assert series.coefficient(n) == expected, f"q^{n}: {series.coefficient(n)} != {expected}"


# ---------------------------------------------------------------------------
# by part size
# ---------------------------------------------------------------------------


def test_fixed_by_part_m1_against_oracle():
    for k in (1, 2, 3):
        for h in (-2, -1, 0, 1, k - 1):
            series = summed(gf_fixed_by_part_m1, k, h, N)
            assert_counts(series, lambda n: count_fixed_hooks(n, 1, h, k, by="part"))


def test_fixed_by_part_m1_coefficient_example():
    assert summed(gf_fixed_by_part_m1, 2, 0, 6).coefficient(5) == 1


def test_fixed_by_part_m1_beyond_claimed_fixedness_bound():
    # h > k-1 is reachable through long legs; (1,1) carries a 1-fixed hook
    series = summed(gf_fixed_by_part_m1, 1, 1, 8)
    assert series.coefficient(2) == 1
    assert_counts(series, lambda n: count_fixed_hooks(n, 1, 1, 1, by="part"), 8)


def test_both_display_forms_agree_by_part():
    for order in (N, 60):
        for m in (1, 2, 3):
            for k in (m, m + 1, m + 3):
                for h in (-2, 0, 1, k - 1):
                    rows = summed(gf_mfixed_by_part, m, k, h, order)
                    assert rows == summed(gf_by_part, Family.ALL, m, k, h, order)
        for k in (1, 2, 4):
            for h in (-1, 0, k - 1):
                assert summed(gf_fixed_by_part_m1, k, h, order, form="rows") == summed(
                    gf_fixed_by_part_m1, k, h, order, form="reindexed"
                )


def expanded(summands):
    """Each summand's exponent and single binomials, cut nowhere."""
    return [(e, None if factors is None else factor_change((), factors, 1 << 30))
            for e, factors in summands]


def test_display_forms_are_one_stream_under_the_index_map():
    # The rows form sums over s = j + 1, with j the rows above the fixed
    # part over which the reindexed form sums, and the m = 1 builders are
    # the general ones at m = 1.  Each pair yields the same summands in the
    # same order, so their agreement checks the index map s = j + 1, not a
    # second derivation.
    for order in (0, 1, 5, 30, 61):
        for m in range(1, 6):
            for k in range(m, 10):
                for h in range(-5, k + 3):
                    rows = expanded(gf_mfixed_by_part(m, k, h, order))
                    assert rows == expanded(gf_by_part(Family.ALL, m, k, h, order)), (order, m, k, h)
                    if m == 1:
                        for form in FORMS:
                            assert expanded(gf_fixed_by_part_m1(k, h, order, form)) == rows
                        assert expanded(gf_fixed_by_hook_m1(k, h, order)) == \
                            expanded(gf_by_hook(Family.ALL, 1, k, h, order)), (order, k, h)


@pytest.mark.parametrize("build, args", [(gf_fixed_by_part_m1, (2, 0, 10))])
def test_by_part_builders_reject_an_unknown_form(build, args):
    with pytest.raises(ValueError, match=r"^unknown form 'bogus'$"):
        summed(build, *args, form="bogus")


def test_mfixed_by_part_matches_oracle_and_figure_case():
    series = summed(gf_mfixed_by_part, 2, 4, 2, 15)
    assert_counts(series, lambda n: count_fixed_hooks(n, 2, 2, 4, by="part"), 15)
    assert series.coefficient(12) == 7  # includes (4,4,3,1)
    assert_counts(
        summed(gf_mfixed_by_part, 3, 3, 0, 15),
        lambda n: count_fixed_hooks(n, 3, 0, 3, by="part"),
        15,
    )


def test_mfixed_by_part_m1_specialization():
    for k in (1, 2, 3, 5):
        for h in (-3, -1, 0, k - 1):
            assert summed(gf_mfixed_by_part, 1, k, h, 50) == summed(gf_fixed_by_part_m1, k, h, 50)


def test_mfixed_by_part_rejects_k_below_m():
    for builder, args in ((gf_mfixed_by_part, (3, 2, 0)), (gf_fixed_by_part_m1, (0, 0))):
        with pytest.raises(ValueError, match="no cell in column"):
            summed(builder, *args, N)


def test_odd_by_part_even_k_is_zero():
    for family in (Family.ODD, Family.ODD_DISTINCT):
        assert summed(gf_by_part, family, 1, 2, 0, N).is_zero()
        assert summed(gf_by_part, family, 2, 4, 1, N).is_zero()


def test_odd_by_part_variants():
    for m, k, h in [(1, 3, 0), (2, 3, 0), (2, 5, 1), (3, 5, -1), (4, 7, 2)]:
        oracle = lambda n: count_fixed_hooks(n, m, h, k, Family.ODD, by="part")
        assert_counts(summed(gf_by_part, Family.ODD, m, k, h, N, variant="derived"), oracle)
        if m == 1:
            # the two index conventions coincide in the first column
            assert summed(gf_by_part, Family.ODD, m, k, h, N, "stated") == \
                summed(gf_by_part, Family.ODD, m, k, h, N, "derived")


def test_odd_by_part_stated_diverges_past_first_column():
    stated = summed(gf_by_part, Family.ODD, 2, 3, 0, N, variant="stated")
    oracle = [count_fixed_hooks(n, 2, 0, 3, Family.ODD, by="part") for n in range(N)]
    assert stated.coefficients(0, N) != oracle


def test_distinct_by_part_variants():
    for m, k, h in [(1, 1, 0), (1, 2, 0), (2, 3, 1), (2, 2, -2), (3, 4, 0)]:
        oracle = lambda n: count_fixed_hooks(n, m, h, k, Family.DISTINCT, by="part")
        assert_counts(summed(gf_by_part, Family.DISTINCT, m, k, h, N, variant="derived"), oracle)
    single_term = summed(gf_by_part, Family.DISTINCT, 3, 3, 2, N, variant="stated")
    assert single_term == summed(gf_by_part, Family.DISTINCT, 3, 3, 2, N, variant="stated")
    assert single_term.min_exp == -2  # its one summand sits at q^-2


def test_distinct_by_part_stated_diverges():
    stated = summed(gf_by_part, Family.DISTINCT, 1, 2, 0, N, variant="stated")
    oracle = [count_fixed_hooks(n, 1, 0, 2, Family.DISTINCT, by="part") for n in range(N)]
    assert stated.coefficients(0, N) != oracle


@pytest.mark.parametrize("family", list(Family))
def test_by_part_rule_matches_the_census(family):
    check_by_part_rule(30, (family,), [
        (m, k, h) for m in range(1, 6) for k in range(m, 12) for h in range(-4, k + 1)])
    check_by_part_rule(200, (family,), [
        (m, k, h) for m in range(1, 4) for k in range(m, 8) for h in range(-2, 3)])


# ---------------------------------------------------------------------------
# by hook size
# ---------------------------------------------------------------------------


def test_fixed_by_hook_m1_against_oracle():
    for k in (1, 2, 3, 4):
        for h in (-2, 0, 1, k - 1):
            assert_counts(summed(gf_fixed_by_hook_m1, k, h, N),
                          lambda n: count_fixed_hooks(n, 1, h, k))


def test_fixed_by_hook_m1_h_at_least_k_is_zero():
    assert summed(gf_fixed_by_hook_m1, 2, 2, N).is_zero()
    assert summed(gf_fixed_by_hook_m1, 1, 5, N).is_zero()
    for k in range(1, 6):
        for h in (k, k + 2):
            assert summed(gf_fixed_by_hook_m1, k, h, N) == LaurentSeries.zero(N)


# The ids are the names these cases had when each family had a builder of
# its own, so that the case names stay stable.
@pytest.mark.parametrize("family", list(Family), ids=[
    "gf_mfixed_by_hook", "gf_odd_by_hook", "gf_distinct_by_hook", "gf_odd_distinct_by_hook"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_by_hook_h_at_least_k_is_zero(family, m):
    # The tail 1/(q^s;q^s)_{k-h-1} is the zero product there, so it makes
    # every summand the zero product, which sum_summands skips.
    for k in range(1, 6):
        for h in (k, k + 2):
            assert all(factors is None for _, factors in gf_by_hook(family, m, k, h, N))
            assert summed(gf_by_hook, family, m, k, h, N) == LaurentSeries.zero(N)


def test_fixed_by_hook_m1_smallest_hook():
    series = summed(gf_fixed_by_hook_m1, 1, 0, 10)
    assert_counts(series, lambda n: count_fixed_hooks(n, 1, 0, 1), 10)


def test_mfixed_by_hook_specializes_and_matches():
    for k in (1, 3, 4):
        for h in (-2, 0, k - 1):
            assert summed(gf_by_hook, Family.ALL, 1, k, h, 50) == \
                summed(gf_fixed_by_hook_m1, k, h, 50)
    assert_counts(summed(gf_by_hook, Family.ALL, 2, 4, 2, 15),
                  lambda n: count_fixed_hooks(n, 2, 2, 4), 15)


def test_family_hook_builders_match_oracles():
    cases = [(1, 1, 0), (1, 4, 0), (2, 2, 0), (2, 2, 1), (2, 3, -1), (3, 4, 1)]
    for m, k, h in cases:
        for family in (Family.ODD, Family.DISTINCT, Family.ODD_DISTINCT):
            assert_counts(
                summed(gf_by_hook, family, m, k, h, N),
                lambda n: count_fixed_hooks(n, m, h, k, family),
            )


def test_all_by_hook_columns_are_conjugate_to_rows():
    # Conjugation carries a hook of size k in column m and row i, which is
    # (k - i)-fixed, to one in column i and row m.
    for m in range(1, 4):
        for i in range(m + 1, 5):
            for k in range(1, 11):
                assert summed(gf_by_hook, Family.ALL, m, k, k - i, 61) == \
                    summed(gf_by_hook, Family.ALL, i, k, k - m, 61), (m, i, k)


def test_odd_by_hook_parity_filtered_sum_can_be_empty():
    # k=1 with an even column leaves no admissible span
    assert summed(gf_by_hook, Family.ODD, 2, 1, 0, N).is_zero()
    assert count_fixed_hooks(6, 2, 0, 1, Family.ODD) == 0


def test_odd_distinct_total_variants():
    for k in (1, 2, 3):
        series = summed(gf_odd_distinct_total, k, N, variant="derived")
        assert series.coefficient(0) == 0
        assert_counts(series, lambda n: count_hooks_of_size(n, k, None, Family.ODD_DISTINCT))
    stated = summed(gf_odd_distinct_total, 1, N, variant="stated")
    oracle = [count_hooks_of_size(n, 1, None, Family.ODD_DISTINCT) for n in range(N)]
    assert stated.coefficients(0, N) != oracle


def test_odd_distinct_total_matches_the_census_to_order_200():
    # The spans end where the Gaussian binomial in q^2 is zero, as in
    # gf_by_hook; the derived stream must equal the census's total hook
    # counts at every k, and the stated one must differ from it.
    order = 200
    tally = hook_tally(order - 1, Family.ODD_DISTINCT)
    for k in range(1, 11):
        want = tally.hooks_total.row((k,))
        for variant in ("derived", "stated"):
            got = summed(gf_odd_distinct_total, k, order, variant).coefficients(0, order)
            assert (got == want) == (variant == "derived"), (k, variant)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_t11_closed_form():
    assert summed(gf_t11_closed_form, 3, 12).coefficient(10) == 10
    for m in (1, 2):
        series = summed(gf_t11_closed_form, m, N)
        assert series.coefficient(0) == 0
        assert_counts(series, lambda n: count_colored_thm11(n, m))


def test_t12_closed_form_both_oracles():
    for m, h in [(1, 0), (2, -1), (3, 1), (2, -3)]:
        series = summed(gf_t12_closed_form, m, h, N)
        assert_counts(series, lambda n: count_fixed_hooks(n, m, h, m, by="part"))
        assert_counts(series, lambda n: count_restricted_thm12(n, m, h))


def test_t13_weight_shift_examples():
    assert t13_weight_shift(1, 1, 0) == -1
    assert t13_weight_shift(2, 3, 0) == -5


def test_t14_matches_oracle_and_cancels_negative_powers():
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            series = summed(gf_t14_hooks_of_size_k, m, k, N)
            assert series.min_exp >= 0
            assert_counts(series, lambda n: count_hooks_of_size(n, k, m))
    # q/(q;q)_inf: p(n-1) coefficients
    series = summed(gf_t14_hooks_of_size_k, 1, 1, 10)
    assert series.coefficients(0, 10) == [0, 1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert series.coefficient(3) == 2


# ---------------------------------------------------------------------------
# catalog dispatch
# ---------------------------------------------------------------------------


def test_resolve_theorem_aliases():
    assert resolve_theorem("T11") is TheoremId.T11_ClosedForm
    assert resolve_theorem("t14") is TheoremId.T14_HooksOfSizeK
    assert resolve_theorem("DistinctBySize") is TheoremId.DistinctBySize
    assert resolve_theorem("oddbyhook") is TheoremId.OddByHook
    with pytest.raises(ValueError):
        resolve_theorem("T99")


def test_build_series_requires_declared_params():
    with pytest.raises(ValueError):
        build_series(TheoremId.T14_HooksOfSizeK, 10, m=1)
    with pytest.raises(ValueError):
        build_series(TheoremId.T13_Shifted, 10, m=1, k=1, h=0)
    with pytest.raises(ValueError):
        build_series(TheoremId.MFixedByHook, 10, m=1, k=2, h=0, variant="stated")
    series = build_series(TheoremId.MFixedByHook, 12, m=2, k=3, h=1)
    assert series == summed(gf_by_hook, Family.ALL, 2, 3, 1, 12)


def test_build_series_rejects_undeclared_params():
    with pytest.raises(ValueError, match="does not take --k"):
        build_series(TheoremId.T12_ClosedForm, 5, m=1, h=0, k=5)
    with pytest.raises(ValueError, match="does not take --m"):
        build_series(TheoremId.FixedByPart_m1, 5, m=1, k=2, h=0)
    with pytest.raises(ValueError, match="does not take --h"):
        build_series(TheoremId.T14_HooksOfSizeK, 5, m=1, k=2, h=0)


def test_a_tag_string_is_its_theorem_and_any_other_tag_is_a_value_error():
    # A TheoremId is a str, so its exact value works wherever the member does.
    by_member = build_series(TheoremId.T11_ClosedForm, 5, m=1)
    assert build_series("T11_ClosedForm", 5, m=1) == by_member
    with pytest.raises(ValueError, match="T11_ClosedForm requires --m"):
        build_series("T11_ClosedForm", 5)
    for tag in ("bogus", "t11"):
        with pytest.raises(ValueError):
            build_series(tag, 5, m=1)
    by_tag = build_grid(GridSpec(theorems=("T11_ClosedForm",)))
    assert by_tag == build_grid(GridSpec(theorems=(TheoremId.T11_ClosedForm,)))
    assert all(case.theorem is TheoremId.T11_ClosedForm for case in by_tag)
    with pytest.raises(ValueError):
        build_grid(GridSpec(theorems=("bogus",)))


def test_catalog_families():
    assert CATALOG[TheoremId.OddBySize].family is Family.ODD
    assert CATALOG[TheoremId.OddDistinctTotal].family is Family.ODD_DISTINCT
    assert CATALOG[TheoremId.T13_Shifted].build is None


def test_order_zero_series_is_empty():
    series = summed(gf_t11_closed_form, 1, 0)
    assert series.order == 0
    assert list(series.items()) == []


# ---------------------------------------------------------------------------
# dense reference: every summand as a product of cached kernels
# ---------------------------------------------------------------------------
#
# The builders update one summand's coefficients in place into the next.  The
# references below build every summand afresh as q^e times a product of the
# dense public kernels, multiplied with LaurentSeries.__mul__, and keep the
# nested sums nested.  A factor is a function from a working order to a
# series; one reaching into negative exponents is redone with headroom.


def ref_term(order, exp, factors):
    width = order - exp
    if width <= 0:
        return LaurentSeries.zero(order)
    pad = 0
    while True:
        prod = LaurentSeries(0, (1,), width + pad)
        for factor in factors:
            prod = prod * factor(width + pad)
        if prod.order >= width:
            return prod.truncate(width).shift(exp)
        pad += width - prod.order


def ref_sum(order, terms, tail=()):
    """Sum of ref_term(order, e, factors) over terms, times the tail factors."""
    total = LaurentSeries.zero(order)
    for e, factors in terms:
        total = total + ref_term(order, e, factors)
    pad = max(0, -total.min_exp)
    for factor in tail:
        total = total * factor(order + pad)
    return total.truncate(order)


def upto(order, first, exponent):
    """(e, s) for s = first, first+1, ... while e = exponent(s) < order."""
    s = first
    while (e := exponent(s)) < order:
        yield e, s
        s += 1


def half(m):
    return (m - 1) // 2 if m % 2 else m // 2


def ref_mfixed_by_part(m, k, h, N, form):
    if form == "reindexed":
        terms = [(e, [lambda M, s=s: inv_poch(1, s + k - h - m, M),
                      lambda M, s=s: gauss_binomial(s + k - m, k - m, 1, M)])
                 for e, s in upto(N, 0, lambda s: s * (k + m) + k * (k - h - m + 1))]
    else:
        terms = [(e, [lambda M, s=s: inv_poch(1, s - 1, M),
                      lambda M, s=s: gauss_binomial(s + h - 1, k - m, 1, M)])
                 for e, s in upto(N, max(1, k - h - m + 1),
                                  lambda s: s * (k + m) + m * (h - k + m - 1))]
    return ref_sum(N, terms, [lambda M: inv_poch(1, m - 1, M)])


def ref_odd_by_part(m, k, h, N, variant):
    if k % 2 == 0:
        return LaurentSeries.zero(N)
    if m % 2:
        exponent, top = (lambda s: s * (k + m) + m * (h - k + m - 1)), (k - m) // 2
    elif variant == "derived":
        exponent = lambda s: s * (k + m + 1) + (m + 1) * (h - k + m - 1)
        top = (k - m - 1) // 2
    else:
        exponent = lambda s: s * (k + m + 1) + m * (h - k + m) + h - k + 1
        top = (k - m - 1) // 2
    terms = []
    for e, s in upto(N, max(1, k - h - m + 1), exponent):
        b = s + h - k + m - 1 if variant == "derived" else s + h - k
        terms.append((e, [lambda M, s=s: inv_poch(2, s - 1, M, step=2),
                          lambda M, b=b: gauss_binomial(b + top, b, 2, M)]))
    return ref_sum(N, terms, [lambda M: inv_poch(1, half(m), M, step=2)])


def ref_distinct_by_part(m, k, h, N, variant):
    terms = []
    for s in range(k - m + 1):
        e = s * (k + m) + k * (k - h - m + 1) + (s + k - m + 1 - h) * (s + k - m - h) // 2 \
            + s * (s - 1) // 2
        count = k - h - 1 if variant == "stated" else s + k - m - h
        terms.append((e, [lambda M, s=s: gauss_binomial(k - m, s, 1, M),
                          lambda M, c=count: inv_poch(1, c, M)]))
    return ref_sum(N, terms, [lambda M: poch(1, m - 1, M, sign=-1)])


def ref_by_hook(family, m, k, h, N):
    """The four by-hook builders: (e, binomial) per span l, then the tail."""
    if k - h - 1 < 0:
        return LaurentSeries.zero(N)
    terms = []
    for l in range(1, k + 1):
        e = (m - 1) * (2 * k - h - l) + k + l * (k - h - 1)
        if family is Family.ALL:
            binom = lambda M, l=l: gauss_binomial(k - 1, l - 1, 1, M)
        elif family is Family.DISTINCT:
            if l < (k + 2) // 2:
                continue
            e += (k - h) * (k - h - 1) // 2 + (k - l) * (k - l - 1) // 2
            binom = lambda M, l=l: gauss_binomial(l - 1, k - l, 1, M)
        else:
            if l % 2 != m % 2:
                continue
            top = (l - 1) // 2 if m % 2 else (l - 2) // 2
            if family is Family.ODD:
                top += k - l
            else:
                if l < (2 * k + 2 - m % 2) // 3:
                    continue
                e += (k - h) * (k - h - 1) + (k - l) * (k - l - 1)
            if m % 2 == 0:
                e += k - l
            binom = lambda M, l=l, t=top: gauss_binomial(t, k - l, 2, M)
        terms.append((e, [binom]))
    tail = {
        Family.ALL: [lambda M: inv_poch(1, k - h - 1, M), lambda M: inv_poch(1, m - 1, M)],
        Family.DISTINCT: [lambda M: inv_poch(1, k - h - 1, M),
                          lambda M: poch(1, m - 1, M, sign=-1)],
        Family.ODD: [lambda M: inv_poch(2, k - h - 1, M, step=2),
                     lambda M: inv_poch(1, half(m), M, step=2)],
        Family.ODD_DISTINCT: [lambda M: inv_poch(2, k - h - 1, M, step=2),
                              lambda M: poch(1, half(m), M, step=2, sign=-1)],
    }[family]
    return ref_sum(N, terms, tail)


def ref_odd_distinct_total(k, N, variant):
    def inner(M, l):
        terms = []
        for e, j in upto(M + 1, 0, lambda j: (2 * j + (l % 2 == 0 and variant == "derived"))
                         * (k - l + 1)):
            if l % 2:
                count, base = ((l + 1) // 2 if variant == "derived" else (l - 1) // 2), 2 * j + 1
            else:
                count, base = l // 2, 2 * j + (3 if variant == "derived" else 1)
            terms.append((e, [lambda W, b=base, c=count: inv_poch(b, c, W, step=2, sign=-1)]))
        return ref_sum(M, terms)

    terms = []
    for l in range(max(1, (2 * k + 1) // 3), k + 1):
        if l % 2 == 0 and l < (2 * k + 2) // 3:
            continue
        e = k + (k - l) * (k - l - 1) + (0 if l % 2 else k - l)
        top = (l - 1) // 2 if l % 2 else (l - 2) // 2
        terms.append((e, [lambda M, l=l, t=top: gauss_binomial(t, k - l, 2, M),
                          lambda M, l=l: inner(M, l)]))
    return ref_sum(N, terms, [lambda M: poch(1, None, M, step=2, sign=-1)])


def ref_t11(m, N):
    terms = [(e, [lambda M, l=l: poch(l, 2 * m - 1, M)])
             for e, l in upto(N + 1, 1, lambda l: l * (l + m - 1))]
    return ref_sum(N, terms, [lambda M: inv_poch(1, m - 1, M), lambda M: inv_poch(1, None, M)])


def ref_t12(m, h, N):
    def core(M):
        acc = inv_poch(2 * m, None, M)
        for s in range(-h):
            acc = acc - ref_term(M, 2 * m * s, [lambda W, s=s: inv_poch(1, s, W)])
        return acc

    return ref_term(N, m * h + m, [lambda M: inv_poch(1, m - 1, M), core])


def ref_t14(m, k, N):
    """Exact only for N > km: at N <= km the outer summand has no width left
    although its inner sum reaches down to q^(k+m-1)."""
    def inner(M):
        return ref_sum(M, [(-(l - 1) * (m - 1),
                            [lambda W, l=l: poch(m, l - 1, W),
                             lambda W, l=l: inv_poch(1, l - 1, W),
                             lambda W, l=l: inv_poch(1, k - l, W)]) for l in range(1, k + 1)])

    return ref_term(N, k * m, [lambda M: inv_poch(k, None, M), inner])


REF_CASES = [
    (1, 1, 0), (1, 2, -3), (1, 3, 2), (2, 2, 1), (2, 3, 0), (2, 5, -2), (3, 3, 2),
    (3, 4, -1), (3, 5, 1), (4, 4, 3), (4, 7, -3), (5, 6, 0), (1, 8, 7), (2, 8, -4),
]


def test_builders_equal_dense_reference_at_order_60():
    N = 60
    for m, k, h in REF_CASES:
        assert summed(gf_mfixed_by_part, m, k, h, N) == ref_mfixed_by_part(m, k, h, N, "rows")
        assert summed(gf_by_part, Family.ALL, m, k, h, N) == \
            ref_mfixed_by_part(m, k, h, N, "reindexed")
        if m == 1:
            for form in ("reindexed", "rows"):
                assert summed(gf_fixed_by_part_m1, k, h, N, form) == \
                    ref_mfixed_by_part(1, k, h, N, form)
        for variant in ("stated", "derived"):
            assert summed(gf_by_part, Family.ODD, m, k, h, N, variant) == \
                ref_odd_by_part(m, k, h, N, variant)
            assert summed(gf_by_part, Family.DISTINCT, m, k, h, N, variant) == \
                ref_distinct_by_part(m, k, h, N, variant)
        for family in Family:
            assert summed(gf_by_hook, family, m, k, h, N) == ref_by_hook(family, m, k, h, N)
        if m == 1:
            assert summed(gf_fixed_by_hook_m1, k, h, N) == ref_by_hook(Family.ALL, 1, k, h, N)
        assert summed(gf_t14_hooks_of_size_k, m, k, N) == ref_t14(m, k, N)
    for m in range(1, 5):
        assert summed(gf_t11_closed_form, m, N) == ref_t11(m, N)
        for h in range(-4, 4):
            assert summed(gf_t12_closed_form, m, h, N) == ref_t12(m, h, N)
    for k in range(1, 9):
        for variant in ("stated", "derived"):
            assert summed(gf_odd_distinct_total, k, N, variant) == \
                ref_odd_distinct_total(k, N, variant)


def test_infinite_run_cut_at_the_window_is_exact_at_any_exponent():
    # factor_change cuts an infinite product at the summing window, not at
    # the order, so a summand below q^0, whose window is wider than the
    # order, is exact too.
    runs = [(inv_poch_factors(1, None), lambda M: inv_poch(1, None, M)),
            (poch_factors(1, None, step=2, sign=-1), lambda M: poch(1, None, M, step=2, sign=-1))]
    for run, dense in runs:
        for e in (-5, -1, 0, 3):
            assert sum_summands(20, [(e, run)]) == dense(20 - e).shift(e)


def test_an_infinite_tail_is_one_cache_entry_at_every_order():
    # The constructors take no order, so T11's tail 1/(q;q)_inf is one
    # cached run whatever order the series is built at.
    inv_poch_factors.cache_clear()
    for order in (10, 20, 30):
        build_series(TheoremId.T11_ClosedForm, order, m=2)
    # (1, 1) for 1/(q;q)_{m-1} and (1, None) for the tail
    assert inv_poch_factors.cache_info().currsize == 2
    for build in (poch_factors, inv_poch_factors):
        assert "order" not in inspect.signature(build).parameters


def test_zero_product_summands_are_skipped():
    # A None tail merged into every summand makes each the zero product:
    # such a stream sums to zero, and amid other summands it adds nothing.
    zero = [(e, merge_factors(gauss_factors(5, 2), None)) for e in (-2, 0, 3)]
    assert all(factors is None for _, factors in zero)
    assert sum_summands(N, zero) == LaurentSeries.zero(N)
    live = [(1, gauss_factors(5, 2)), (4, inv_poch_factors(1, 3))]
    assert sum_summands(N, live[:1] + zero + live[1:]) == sum_summands(N, live)
    assert not sum_summands(N, live).is_zero()


def test_sum_of_a_non_monotone_stream_equals_dense_reference():
    # The exponents go down and up, one summand sits below q^0 and one at
    # the order; runs move, change length, appear and vanish between
    # summands, and one summand is the zero product.
    N = 40
    summands = [
        (6, merge_factors(gauss_factors(7, 3), inv_poch_factors(1, 4))),
        (-3, merge_factors(gauss_factors(8, 3), inv_poch_factors(1, 6))),
        (11, merge_factors(gauss_factors(6, 2, 2), inv_poch_factors(3, 5, step=2, sign=-1))),
        (2, poch_factors(4, 3)),
        (45, poch_factors(1, 2)),
        (0, merge_factors(poch_factors(2, 5, sign=-1), gauss_factors(9, 4))),
        (9, merge_factors(gauss_factors(9, 4), inv_poch_factors(1, -1))),
        (5, merge_factors(gauss_factors(4, 0), inv_poch_factors(2, 3, step=3))),
    ]
    dense = [
        (6, [lambda M: gauss_binomial(7, 3, 1, M), lambda M: inv_poch(1, 4, M)]),
        (-3, [lambda M: gauss_binomial(8, 3, 1, M), lambda M: inv_poch(1, 6, M)]),
        (11, [lambda M: gauss_binomial(6, 2, 2, M), lambda M: inv_poch(3, 5, M, step=2, sign=-1)]),
        (2, [lambda M: poch(4, 3, M)]),
        (0, [lambda M: poch(2, 5, M, sign=-1), lambda M: gauss_binomial(9, 4, 1, M)]),
        (5, [lambda M: inv_poch(2, 3, M, step=3)]),
    ]
    # A tail merged into every summand, with an infinite run that
    # factor_change cuts at the window [-3, N).
    tail = merge_factors(inv_poch_factors(1, 2), inv_poch_factors(2, None))
    want = ref_sum(N, dense, [lambda M: inv_poch(1, 2, M), lambda M: inv_poch(2, None, M)])
    assert sum_summands(N, [(e, merge_factors(f, tail)) for e, f in summands]) == want


@pytest.mark.parametrize("order", [30, 120])
def test_streams_with_an_infinite_product_start_at_q1(order):
    # Every summand exponent is at least 1 over the default grid, as the
    # builders' docstrings bound it: these series have no constant term.
    tags = (TheoremId.T11_ClosedForm, TheoremId.T14_HooksOfSizeK, TheoremId.OddDistinctTotal)
    read = 0
    for case in build_grid(GridSpec(theorems=tags, order=order)):
        spec = CATALOG[case.theorem]
        params = {name: getattr(case, name) for name in spec.params}
        for variant in spec.variants or (None,):
            extra = {"variant": variant} if variant else {}
            exponents = [e for e, _ in spec.build(order=order, **params, **extra)]
            assert exponents and min(exponents) >= 1, case.label()
            read += 1
    assert read > 40


def test_t14_below_km_keeps_its_low_terms():
    # The lowest hook of size k in column m sits at weight k + m - 1 < km.
    for m, k, N in [(2, 5, 7), (3, 3, 9), (2, 2, 4)]:
        assert_counts(summed(gf_t14_hooks_of_size_k, m, k, N),
                      lambda n: count_hooks_of_size(n, k, m), N)
    assert summed(gf_t14_hooks_of_size_k, 2, 5, 7).coefficient(6) == 1


@pytest.mark.parametrize("call", [
    lambda: summed(gf_fixed_by_hook_m1, 0, 0, 10),
    lambda: summed(gf_by_hook, Family.ALL, 2, 0, 0, 10),
    lambda: summed(gf_odd_distinct_total, 0, 10),
    lambda: summed(gf_t14_hooks_of_size_k, 1, -1, 10),
    lambda: summed(gf_by_hook, Family.ODD, 1, 0, -2, 10),
    lambda: summed(gf_by_hook, Family.DISTINCT, 1, -2, -3, 10),
    lambda: summed(gf_by_hook, Family.ODD_DISTINCT, 2, 0, -1, 10),
])
def test_builders_reject_hook_size_below_one(call):
    with pytest.raises(ValueError, match="hook size k must be >= 1"):
        call()


@pytest.mark.parametrize("args, message", [
    ((0, 2, 0, 10), "column index m must be >= 1"),
    ((3, 2, 0, 10), "part size k=2 has no cell in column m=3"),
    ((2, 4, 0, 10, "bogus"), "unknown variant 'bogus'"),
])
@pytest.mark.parametrize("family", list(Family))
def test_by_part_rejects_bad_arguments_before_any_summand(family, args, message):
    # k = 4 from column 2 gives the odd families no summand at all.
    with pytest.raises(ValueError, match=message):
        next(gf_by_part(family, *args))


@pytest.mark.parametrize("family", [Family.ALL, Family.ODD])
def test_by_part_walks_no_zero_summands_for_a_large_h(family):
    # Without distinctness the l-sum is unbounded, so it starts where the
    # rows above reach j = 0; from l = 0 it would yield h - k + m zero
    # summands before the first one at or past the order.  The first
    # column's reindexed form starts there too.
    assert list(gf_by_part(family, 1, 3, 10**6, 20)) == []
    assert list(gf_fixed_by_part_m1(3, 10**6, 20)) == []


def test_a_stated_distinct_stream_keeps_its_summands_at_negative_j():
    # The stated distinct variant counts k-h-1 rows above for every l, so
    # a summand with j < 0 is no zero product: at m = 2, h = k - 1 the
    # first one sits at q^0, and the stream stops at the next, j = 0.
    assert [e for e, _ in gf_by_part(Family.DISTINCT, 2, 50, 49, 5, "stated")] == [0]


# A hook or part of size K > the order: every summand sits at q^K or above.
# K is odd, so that the odd-and-distinct family has parts of that size.
K = 10**6 + 1


@pytest.mark.parametrize("build, args", [
    (gf_by_hook, (Family.ALL, 2, K, 0, 5)),
    (gf_fixed_by_hook_m1, (K, 0, 5)),
    (gf_odd_distinct_total, (K, 5)),
    (gf_t14_hooks_of_size_k, (1, K, 5)),
] + [(gf_by_part, (family, 1, K, 0, 5, variant))
     for family in (Family.DISTINCT, Family.ODD_DISTINCT) for variant in ("stated", "derived")])
def test_a_stream_past_the_order_yields_no_summand(build, args):
    assert list(islice(build(*args), 1)) == []


@pytest.mark.parametrize("family", list(Family))
def test_by_hook_rejects_column_below_one(family):
    with pytest.raises(ValueError, match="column index m must be >= 1"):
        summed(gf_by_hook, family, 0, 2, 0, 10)
