import hashlib
import json

import pytest

import fixedhooks.verify as verify
from fixedhooks.cli import main
from fixedhooks.genfun import (
    CATALOG,
    TheoremId,
    build_series,
    by_hook_exponent,
    gf_by_part,
    gf_odd_distinct_total,
)
from fixedhooks.oracles import (
    CountTable,
    colored_t13_row,
    count_colored_thm13,
    count_fixed_hooks,
    hook_tally,
)
from fixedhooks.partitions import Family
from fixedhooks.qseries import LaurentSeries, sum_summands
from fixedhooks.verify import (
    GridSpec,
    IdentityCase,
    VerifyReport,
    build_grid,
    fixedness_window,
    render_csv,
    render_jsonl,
    render_text,
    run_case,
    run_cases,
    variant_notes,
)


def test_grid_defaults_cover_every_theorem():
    cases = build_grid(GridSpec())
    tags = {c.theorem for c in cases}
    assert TheoremId.MFixedByPart in tags
    assert TheoremId.OddDistinctTotal in tags
    assert TheoremId.T13_Shifted in tags
    # default by-part grid starts k at m, so nothing needs skipping
    assert all(c.k >= c.m for c in cases if c.theorem is TheoremId.MFixedByPart)


def test_grid_cases_set_only_declared_params():
    # build_series rejects an undeclared parameter, so no case may carry one.
    explicit = GridSpec(m_values=(1, 2), k_values=(2, 3), h_values=(-1, 0))
    for spec in (GridSpec(), explicit):
        for case in build_grid(spec):
            given = {name for name in ("m", "k", "h") if getattr(case, name) is not None}
            assert given <= set(CATALOG[case.theorem].params), case


def test_grid_is_sorted_and_unique():
    cases = build_grid(GridSpec())
    keys = [c.key() for c in cases]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_grid_family_filter():
    cases = build_grid(GridSpec(families=(Family.ODD,)))
    assert cases
    assert {c.theorem for c in cases} == {TheoremId.OddBySize, TheoremId.OddByHook}


def test_explicit_invalid_combination_is_skipped_not_dropped():
    spec = GridSpec(
        theorems=(TheoremId.MFixedByPart,),
        order=8,
        m_values=(3,),
        k_values=(2,),
        h_values=(0,),
    )
    cases = build_grid(spec)
    assert len(cases) == 1
    report = run_case(cases[0])
    assert report.status == "skipped"
    assert "column" in report.detail


def test_run_cases_pass_and_windows():
    cases = build_grid(
        GridSpec(theorems=(TheoremId.MFixedByHook,), order=12, m_values=(1, 2),
                 k_values=(1, 2, 3), h_values=(-1, 0, 1))
    )
    reports = run_cases(cases)
    assert all(r.status == "pass" for r in reports)


def test_failure_reports_first_mismatch():
    # an oddly ordered check cannot fail here, so fabricate one by comparing
    # a builder against the wrong oracle through a doctored case
    case = IdentityCase(TheoremId.OddBySize, 12, m=2, k=3, h=0, variant="stated")
    report = run_case(case)
    assert report.status == "fail"
    assert report.first_mismatch is not None
    n, got, want = report.first_mismatch
    assert got != want


def test_first_mismatch_reads_series_from_their_lowest_power():
    series = LaurentSeries(-2, [1, 0, 5, 7], 4)
    assert verify._first_mismatch(series, [5, 7, 0, 0], 4) == (-2, 1, 0)
    assert verify._first_mismatch(series.truncate(2) - LaurentSeries(-2, [1], 2), [5, 7], 2) is None
    assert verify._first_mismatch([5, 7, 1], [5, 7, 2], 3) == (2, 1, 2)
    assert verify._first_mismatch([5, 7, 1], [5, 7, 1], 3) is None


def test_hook_sum_at_order_one_reads_no_size_and_passes():
    # At N = 1 no hook size is below the order: the count is the empty sum.
    report = run_case(IdentityCase(TheoremId.T11_ClosedForm, 1, m=1, check="hook-sum"))
    assert report.status == "pass"


def test_hook_sum_case_reads_one_row():
    # The sum over every hook size is one packed row of the census.
    hook_tally.cache_clear()
    report = run_case(IdentityCase(TheoremId.T11_ClosedForm, 30, m=2, check="hook-sum"))
    assert report.status == "pass"
    assert list(hook_tally(29, Family.ALL).by_hook._packed) == [(2, None, 0)]


def test_variant_adjudication_passes_when_one_matches():
    case = IdentityCase(TheoremId.OddBySize, 12, m=2, k=3, h=0)
    report = run_case(case)
    assert report.status == "pass"
    assert "derived=match" in report.detail
    assert "stated=mismatch" in report.detail


def test_t13_case_adjudicates_variants():
    report = run_case(IdentityCase(TheoremId.T13_Shifted, 14, m=1, k=2, h=1))
    assert report.status == "pass"
    assert "derived=match" in report.detail
    report0 = run_case(IdentityCase(TheoremId.T13_Shifted, 14, m=2, k=3, h=0))
    assert "stated=match" in report0.detail


def _last_column(k, order):
    """The last column m whose fixedness window is not empty."""
    return max(m for m in range(1, order) if fixedness_window(m, k, order))


def test_windows_shrink_with_order():
    assert fixedness_window(1, 2, 30)[0] == 1
    assert len(fixedness_window(1, 2, 30)) > len(fixedness_window(1, 2, 10))
    assert [m for m in range(1, 10) if fixedness_window(m, 4, 10)] == [1, 2, 3, 4, 5, 6]


def test_build_grid_rejects_a_negative_order():
    # A negative order once built 44 cases that all ended in error
    # ("StopIteration: "), since the oracle rows were sliced from the end.
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -3$"):
        build_grid(GridSpec(theorems=("T11_ClosedForm", "T14_HooksOfSizeK"), order=-3))
    assert build_grid(GridSpec(theorems=("T11_ClosedForm",), order=0))


@pytest.mark.parametrize("spec", [
    GridSpec(theorems=("T11_ClosedForm",), order=2.5),
    GridSpec(theorems=("T11_ClosedForm",), order=30.0),
    GridSpec(theorems=("MFixedByHook",), m_values=(1.0,)),
    GridSpec(theorems=("MFixedByHook",), k_values=(2.0,), h_values=(0,)),
    GridSpec(theorems=("MFixedByHook",), h_values=("0",)),
])
def test_build_grid_rejects_non_integer_values(spec):
    # A non-integer order or parameter once built cases that all ended in
    # error, such as "TypeError: 'float' object cannot be interpreted as an
    # integer"; the grid now raises that TypeError itself.
    with pytest.raises(TypeError):
        build_grid(spec)


def test_build_grid_rejects_a_variant_no_selected_theorem_takes():
    # It was once dropped: the T11 grid ran without it.
    with pytest.raises(ValueError, match=r"^no selected theorem takes variant "
                       r"\(selected: T11_ClosedForm\)$"):
        build_grid(GridSpec(theorems=("T11_ClosedForm",), variant="stated"))


def test_build_grid_rejects_an_unknown_family():
    # An unknown family once filtered every theorem out: the grid was empty.
    with pytest.raises(ValueError, match=r"^'bogus' is not a valid Family$"):
        build_grid(GridSpec(families=("bogus",)))
    by_value = build_grid(GridSpec(families=("odd-distinct",)))
    assert by_value == build_grid(GridSpec(families=(Family.ODD_DISTINCT,)))
    assert len(by_value) == 246


# Each entry that reads a closed-form variant, given its keyword: the
# builders' streams summed (the by-part rule in three families), the T13
# companion row and count at h = 1, and (for the rejection only) a grid.
VARIANT_ENTRIES = {
    "gf_by_part(ODD)": lambda **v: sum_summands(20, gf_by_part(Family.ODD, 2, 3, 0, 20, **v)),
    "gf_by_part(DISTINCT)":
        lambda **v: sum_summands(20, gf_by_part(Family.DISTINCT, 2, 3, 0, 20, **v)),
    "gf_by_part(ODD_DISTINCT)":
        lambda **v: sum_summands(20, gf_by_part(Family.ODD_DISTINCT, 2, 3, 0, 20, **v)),
    "gf_odd_distinct_total": lambda **v: sum_summands(20, gf_odd_distinct_total(1, 20, **v)),
    "colored_t13_row": lambda **v: colored_t13_row(20, 2, 4, 1, **v),
    "count_colored_thm13": lambda **v: count_colored_thm13(20, 2, 4, 1, **v),
}


@pytest.mark.parametrize(
    "entry", [*VARIANT_ENTRIES.values(), lambda **v: build_grid(GridSpec(**v))],
    ids=[*VARIANT_ENTRIES, "build_grid"],
)
def test_every_variant_entry_rejects_an_unknown_variant(entry):
    with pytest.raises(ValueError, match=r"^unknown variant 'bogus'$"):
        entry(variant="bogus")


@pytest.mark.parametrize("entry", VARIANT_ENTRIES.values(), ids=VARIANT_ENTRIES)
def test_an_omitted_variant_is_the_derived_one(entry):
    # Each entry's two readings differ here, so the default is told apart.
    assert entry() == entry(variant="derived") != entry(variant="stated")


def test_unpinned_distinct_by_size_matches_the_census():
    # Without a variant this series once read the stated form: 3, 4, 5.
    series = build_series(TheoremId.DistinctBySize, 30, m=2, k=3, h=0)
    census = [count_fixed_hooks(n, 2, 0, 3, Family.DISTINCT, by="part") for n in (9, 10, 11)]
    assert series.coefficients(9, 12) == census == [2, 2, 2]


def test_fixedness_window_reads_the_end_spans():
    # by_hook_exponent is linear in the span l, so its least value over
    # l = 1 .. k is at l = 1 or l = k, the two spans the window reads.
    for m in range(1, 5):
        for k in range(1, 9):
            for h in range(-40, k):
                spans = [by_hook_exponent(m, k, h, l) for l in range(1, k + 1)]
                assert min(spans) == min(spans[0], spans[-1]), (m, k, h)
            for order in (0, 1, 10, 30):
                full = [h for h in range(k - 1, -41, -1)
                        if min(by_hook_exponent(m, k, h, l) for l in range(1, k + 1)) < order]
                assert fixedness_window(m, k, order) == full, (m, k, order)


@pytest.mark.parametrize("order", [30, 60])
def test_every_default_window_ends_on_its_last_nonzero_term(order):
    # The last h of an h-aggregation window, and the last column of a
    # column-total window, has a term with a coefficient below the order;
    # the next h or column has none.
    def reaches(theorem, m, k, hs):
        series = (build_series(theorem, order, m=m, k=k, h=h) for h in hs)
        return any(any(s.coefficients(min(0, s.min_exp), order)) for s in series)

    aggregates = [case for case in build_grid(GridSpec(order=order))
                  if case.check in ("h-aggregation", "column-total")]
    assert len(aggregates) == 26
    for case in aggregates:
        k = case.k
        if case.check == "h-aggregation":
            last = fixedness_window(case.m, k, order)[-1]
            assert reaches(TheoremId.MFixedByHook, case.m, k, (last,)), case.label()
            assert not reaches(TheoremId.MFixedByHook, case.m, k, (last - 1,)), case.label()
        else:
            last = _last_column(k, order)
            assert reaches(case.theorem, last, k, fixedness_window(last, k, order)), case.label()
            assert not reaches(case.theorem, last + 1, k, range(-order, k)), case.label()


def test_renderers_are_deterministic_and_well_formed():
    cases = build_grid(
        GridSpec(theorems=(TheoremId.T12_ClosedForm,), order=10, m_values=(1, 2),
                 h_values=(-1, 0))
    )
    reports = run_cases(cases)
    notes = variant_notes(reports)
    text1 = render_text(reports, notes)
    text2 = render_text(run_cases(cases), variant_notes(run_cases(cases)))
    assert text1 == text2
    assert "total" in text1

    csv_text = render_csv(reports)
    header = csv_text.splitlines()[0]
    assert len(csv_text.splitlines()) == len(reports) + 1

    for line in render_jsonl(reports).splitlines():
        row = json.loads(line)
        assert row["status"] == "pass"
        assert tuple(row) == verify._REPORT_FIELDS
    assert header == ",".join(verify._REPORT_FIELDS)


def test_variant_notes_ignore_skipped_cases():
    cases = build_grid(
        GridSpec(theorems=(TheoremId.T13_Shifted,), order=10, m_values=(2,),
                 k_values=(1, 2), h_values=(0,))
    )
    reports = run_cases(cases)
    assert {r.status for r in reports} == {"pass", "skipped"}
    notes = variant_notes(reports)
    assert all("cell" not in note for note in notes)


def test_variant_notes_summarize_resolution():
    cases = build_grid(
        GridSpec(theorems=(TheoremId.DistinctBySize,), order=12, m_values=(1, 2),
                 k_values=(2, 3), h_values=(0, 1))
    )
    reports = run_cases(cases)
    notes = variant_notes(reports)
    assert len(notes) == 1
    assert "DistinctBySize" in notes[0]
    assert "derived" in notes[0] and "stated" in notes[0]


# sha256 of repr([c.key() + (c.order,) for c in build_grid(spec)]) and the
# case count, recorded before the grid was rebuilt from the per-theorem table.
PINNED_GRIDS = [
    (GridSpec(), 1905,
     "a9b09660ac7e8ede825b9cb9b6a21fb10f38064b564f84d372f641809740d564"),
    (GridSpec(order=8, m_values=(0, 2), k_values=(-5, -1, 3), h_values=(0,)), 83,
     "807df0b5039fb66c94ea10ce4cd578b2ee07414fc937c84d44b875c577bb1d82"),
    (GridSpec(k_values=(-5,)), 88,
     "70cfd114cf7bb7b6e3b2baf271d0aae8344305a823cba9b8320c7ff9f78eb475"),
    (GridSpec(m_values=()), 126,
     "0ed9d8df15bba31737cb1eddfb21b6ea6c7e907e0ded8e431df2eadfc1f509bc"),
    (GridSpec(h_values=()), 58,
     "6e13879a94f5404e8e4b774ec20f5643c0fe648397458c8498964d6125e1d86a"),
    (GridSpec(k_values=(), h_values=(1,)), 16,
     "e0574ac69e2cd14df2b8c3471e5bdac9a68db74868bedd7baced8eda124eeac7"),
    (GridSpec(variant="stated"), 1905,
     "7a3b35b10e16d0d34d226144c067348a0dd13808b2834ffcb4069af47e96635e"),
    (GridSpec(families=(Family.ODD_DISTINCT,), variant="derived"), 246,
     "1d51b2b89a68680f75be299d820ef70c2a2a61a642a276ac4518a76eb593c9fb"),
    (GridSpec(m_values=(5, 6), k_values=(2, 9)), 336,
     "fa74473f7222e585c7b28b00d6da77aefbe5413b3cf1db4d31881d605154ee57"),
]


@pytest.mark.parametrize("spec, count, digest", PINNED_GRIDS)
def test_build_grid_key_lists_are_pinned(spec, count, digest):
    keys = [c.key() + (c.order,) for c in build_grid(spec)]
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def _add_up(terms, order):
    """The sum of series that are all truncated at ``order``, added into one
    coefficient list.  Each term stores exactly its coefficients from its
    valuation up to the order."""
    lo, total = 0, [0] * order
    for s in terms:
        if s.min_exp < lo:
            total[:0] = [0] * (lo - s.min_exp)
            lo = s.min_exp
        for i, c in enumerate(s.coeffs):
            total[s.min_exp - lo + i] += c
    return LaurentSeries(lo, total, order)


@pytest.mark.parametrize("order", [30, 60])
def test_aggregate_checks_equal_the_sum_of_their_terms_series(order):
    # An aggregate check chains its terms' summand streams and sums them in
    # one pass; that must equal building every term's series and adding them.
    aggregates = [case for case in build_grid(GridSpec(order=order))
                  if case.check in ("h-aggregation", "column-total")]
    assert len(aggregates) == 26
    for case in aggregates:
        k = case.k
        if case.check == "h-aggregation":
            terms = [build_series(TheoremId.MFixedByHook, order, m=case.m, k=k, h=h)
                     for h in fixedness_window(case.m, k, order)]
        else:
            terms = [build_series(case.theorem, order, m=m, k=k, h=h)
                     for m in range(1, _last_column(k, order) + 1)
                     for h in fixedness_window(m, k, order)]
        got, _ = verify._sides(case, None)
        assert got == _add_up(terms, order), case.label()


def test_every_theorem_has_one_row():
    assert set(CATALOG) == set(TheoremId)
    for t, row in CATALOG.items():
        assert isinstance(getattr(hook_tally(1, row.family), row.table), CountTable), t
        assert row.checks, t
    assert set(verify.VARIANT_TAGS) == {
        TheoremId.OddBySize, TheoremId.DistinctBySize, TheoremId.OddDistinctTotal,
        TheoremId.T13_Shifted,
    }


def test_records_are_immutable_values_and_each_report_owns_its_variants():
    case = IdentityCase(TheoremId.T11_ClosedForm, 10, m=2)
    for record, name in ((case, "order"), (hook_tally(3), "max_n"),
                         (CATALOG[TheoremId.T11_ClosedForm], "family")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    same = IdentityCase(theorem=TheoremId.T11_ClosedForm, order=10, m=2, check="oracle")
    assert same == case and hash(same) == hash(case) and same is not case
    assert case._replace(m=3) != case
    first, second = VerifyReport(case, "pass"), VerifyReport(case, "pass")
    first.variants["derived"] = True
    assert second.variants == {}
    assert run_case(case).elapsed > 0


@pytest.mark.parametrize("case", [
    IdentityCase(TheoremId.T14_HooksOfSizeK, 10, 1, 1, check="colored"),
    IdentityCase(TheoremId.MFixedByHook, 10, 1, 1, 0, check="restricted"),
    IdentityCase(TheoremId.MFixedByHook, 10, 1, 2, 0, check="column-total"),
    IdentityCase(TheoremId.T11_ClosedForm, 10, 2),
], ids=lambda case: case.label())
def test_a_check_the_row_does_not_list_is_skipped(case):
    # Such a case once ran its check anyway: a false FAIL for the first two,
    # a PASS of an undeclared check, and a TypeError for T11 without k.
    report = run_case(case)
    assert report.status == "skipped"
    assert report.detail == f"{case.theorem.value} has no {case.check} check"


@pytest.mark.parametrize("theorem", [TheoremId.OddByHook, TheoremId.DistinctByHook])
def test_column_total_rejects_hook_size_below_one(theorem):
    # also at orders 0 and 1, where no column reaches below the order
    for k, order in ((0, 8), (-2, 8), (0, 1), (0, 0), (-1, 0)):
        report = run_case(IdentityCase(theorem, order, k=k, check="column-total"))
        assert report.status == "skipped"
        assert report.detail == "hook size k must be >= 1"


def _failing_build_series(monkeypatch, theorem):
    real = verify.build_series

    def build(t, *args, **kwargs):
        if t is theorem:
            raise RuntimeError("builder exploded")
        return real(t, *args, **kwargs)

    monkeypatch.setattr(verify, "build_series", build)


def test_a_crashing_case_ends_in_error_and_the_grid_finishes(monkeypatch, capsys):
    _failing_build_series(monkeypatch, TheoremId.OddBySize)
    code = main(["verify", "--thm", "OddBySize,MFixedByHook", "--m", "1", "--k", "2",
                 "--h", "0..1", "--order", "8"])
    out = capsys.readouterr().out
    assert code == 3
    lines = out.splitlines()
    errors = [line for line in lines if line.startswith("ERROR")]
    assert errors == [
        "ERROR   OddBySize m=1 k=2 h=0 N=8  (RuntimeError: builder exploded)",
        "ERROR   OddBySize m=1 k=2 h=1 N=8  (RuntimeError: builder exploded)",
    ]
    assert sum(line.startswith("PASS") for line in lines) == 2
    assert "total 4 cases: 2 passed, 0 failed, 0 skipped, 2 errored" in lines
    # variant_notes skips error reports as it skips skipped ones.
    assert not any(line.startswith("variant resolution") for line in lines)


def test_an_error_outranks_a_mismatch_in_the_exit_code(monkeypatch, capsys):
    argv = ["verify", "--thm", "OddBySize,MFixedByHook", "--m", "2", "--k", "3",
            "--h", "0", "--order", "12", "--variant", "stated"]
    assert main(argv) == 1
    assert "errored" not in capsys.readouterr().out
    _failing_build_series(monkeypatch, TheoremId.MFixedByHook)
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert "FAIL    OddBySize" in out and "ERROR   MFixedByHook" in out
