"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every comparison is exact integer equality; the only
tolerances are the stated wall-clock budgets.
"""

import contextlib
import random
import time

from fixedhooks.cli import main as cli_main
from fixedhooks.genfun import (
    TheoremId,
    gf_by_hook,
    gf_by_part,
    gf_fixed_by_hook_m1,
    gf_fixed_by_part_m1,
    gf_t11_closed_form,
    sum_summands,
)
from fixedhooks.oracles import count_colored_thm11
from fixedhooks.partitions import Family, partition_count
from fixedhooks.qseries import LaurentSeries, inv_poch
from fixedhooks.verify import GridSpec, build_grid, run_cases, variant_notes


@contextlib.contextmanager
def criterion(ident, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {ident} ({text}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {ident} ({text}): PASS ({elapsed:.1f}s)")


def run_and_require_all_pass(spec: GridSpec, checks=None):
    cases = build_grid(spec)
    if checks is not None:
        cases = [c for c in cases if c.check in checks]
    assert cases, "grid unexpectedly empty"
    reports = run_cases(cases)
    failures = [r for r in reports if r.status != "pass"]
    assert not failures, "; ".join(
        f"{r.case.label()}: {r.status} {r.first_mismatch or r.detail}" for r in failures[:5]
    )
    return reports


def test_criterion_1_worked_example(capsys):
    with criterion(1, "worked example m=3, n=10"):
        started = time.perf_counter()
        series = sum_summands(12, gf_t11_closed_form(3, 12))
        assert series.coefficient(10) == 10
        assert count_colored_thm11(10, 3) == 10
        assert time.perf_counter() - started < 1.0

        code = cli_main(["count", "fixed-by-hook", "--n", "10", "--m", "3", "--h", "0",
                         "--sum-k", "--list"])
        out1 = capsys.readouterr().out
        assert code == 0
        code = cli_main(["count", "colored-t11", "--n", "10", "--m", "3", "--list"])
        out2 = capsys.readouterr().out
        assert code == 0

        hook_column = set(out1.strip().splitlines()[:-1])
        assert hook_column == {
            "(6, 4)", "(5, 4, 1)", "(4, 4, 2)", "(4, 4, 1, 1)", "(4, 3, 3)",
            "(3, 3, 3, 1)", "(3, 2, 2, 2, 1)", "(3, 2, 2, 1, 1, 1)",
            "(3, 2, 1, 1, 1, 1, 1)", "(3, 1, 1, 1, 1, 1, 1, 1)",
        }
        colored_column = set(out2.strip().splitlines()[:-1])
        assert colored_column == {
            "(7, 1^3)", "(6, 1r, 1^3)", "(2r, 2^4)", "(2^4, 1r^2)", "(2^4, 1r, 1)",
            "(2^4, 1^2)", "(2r^3, 1r, 1^3)", "(2r^2, 1r^3, 1^3)", "(2r, 1r^5, 1^3)",
            "(1r^7, 1^3)",
        }


def test_criterion_2_unrestricted_oracle_grid():
    with criterion(2, "unrestricted by-part/by-hook grid, n < 30"):
        started = time.perf_counter()
        run_and_require_all_pass(
            GridSpec(theorems=(TheoremId.MFixedByPart, TheoremId.MFixedByHook), order=30)
        )
        assert time.perf_counter() - started < 300.0


def test_criterion_3_family_oracle_grids():
    with criterion(3, "odd/distinct/odd-distinct grids with variant adjudication"):
        reports = run_and_require_all_pass(
            GridSpec(
                theorems=(
                    TheoremId.OddBySize,
                    TheoremId.DistinctBySize,
                    TheoremId.OddByHook,
                    TheoremId.DistinctByHook,
                    TheoremId.OddDistinctByHook,
                ),
                order=30,
            ),
            checks=("oracle",),
        )
        notes = variant_notes(reports)
        resolution = [n for n in notes if "DistinctBySize" in n]
        assert resolution, "expected a variant-resolution note for DistinctBySize"
        # the row-dependent denominator is the one that matches everywhere
        distinct = [r for r in reports if r.case.theorem is TheoremId.DistinctBySize]
        assert all("derived=match" in r.detail for r in distinct)
        assert any("stated=mismatch" in r.detail for r in distinct)
        odd = [r for r in reports if r.case.theorem is TheoremId.OddBySize]
        assert all("derived=match" in r.detail for r in odd)
        for note in resolution:
            print(f"[acceptance] {note}")


def test_criterion_4_hooks_of_size_k():
    with criterion(4, "all-hooks closed form, fixedness aggregation, no negative powers"):
        reports = run_and_require_all_pass(
            GridSpec(theorems=(TheoremId.T14_HooksOfSizeK,), order=25)
        )
        assert {r.case.check for r in reports} == {"oracle", "h-aggregation"}
        # negative exponents are asserted inside the builder and compared
        # against zero by the oracle check; spot-check the strongest case
        from fixedhooks.genfun import gf_t14_hooks_of_size_k

        assert sum_summands(25, gf_t14_hooks_of_size_k(3, 6, 25)).min_exp >= 0


def test_criterion_5_odd_distinct_totals():
    with criterion(5, "odd-distinct total hook counts"):
        run_and_require_all_pass(
            GridSpec(theorems=(TheoremId.OddDistinctTotal,), order=30)
        )


def test_criterion_6_closed_form_identities():
    with criterion(6, "part-size-m closed form and shifted colored identity"):
        run_and_require_all_pass(
            GridSpec(theorems=(TheoremId.T12_ClosedForm,), order=30)
        )
        reports = run_and_require_all_pass(
            GridSpec(theorems=(TheoremId.T13_Shifted,), order=25)
        )
        # the weight-shifted identity must hold with the h-aware objects
        assert all("derived=match" in r.detail for r in reports)
        stated_at_h0 = [r for r in reports if r.case.h == 0]
        assert all("stated=match" in r.detail for r in stated_at_h0)


def _random_series(rng):
    min_exp = rng.randint(-10, 10)
    length = rng.randint(0, 10)
    coeffs = [rng.randint(-9, 9) for _ in range(length)]
    order = min_exp + length + rng.randint(0, max(0, 30 - (min_exp + length)))
    return LaurentSeries(min_exp, coeffs, order)


def _agree(a, b):
    lo = min(a.min_exp, b.min_exp)
    hi = min(a.order, b.order)
    return all(a.coefficient(e) == b.coefficient(e) for e in range(lo, hi))


def test_criterion_7_specializations_and_kernel():
    with criterion(7, "m=1 specializations at N=50, ring axioms, partition numbers"):
        for k in range(1, 7):
            for h in range(-3, k):
                assert sum_summands(50, gf_by_part(Family.ALL, 1, k, h, 50)) == \
                    sum_summands(50, gf_fixed_by_part_m1(k, h, 50))
                assert sum_summands(50, gf_by_hook(Family.ALL, 1, k, h, 50)) == \
                    sum_summands(50, gf_fixed_by_hook_m1(k, h, 50))

        rng = random.Random(20260809)
        for _ in range(1000):
            a, b, c = (_random_series(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert _agree((a * b) * c, a * (b * c))
            assert _agree(a * (b + c), a * b + a * c)

        series = inv_poch(1, None, 41)
        for n in range(41):
            assert series.coefficient(n) == partition_count(n)
        assert series.coefficient(10) == 42


def test_criterion_8_family_hook_totals():
    with criterion(8, "hook totals across all columns and fixedness"):
        cases = build_grid(
            GridSpec(theorems=(TheoremId.OddByHook, TheoremId.DistinctByHook), order=25)
        )
        cases = [c for c in cases if c.check == "column-total"]
        assert {c.k for c in cases} == {1, 2, 3, 4}
        assert {c.order for c in cases} == {25}
        reports = run_cases(cases)
        bad = [r for r in reports if r.status != "pass"]
        assert not bad, bad[:3]
