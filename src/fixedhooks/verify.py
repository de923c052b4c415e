"""Identity verification: series coefficients against counting oracles.

A grid of :class:`IdentityCase` checks runs in one process, case by case
in sorted case-key order, so reports are byte-for-byte reproducible for a
fixed grid; each case produces one :class:`VerifyReport`.  What the verifier
knows of a theorem sits in its row of :data:`~fixedhooks.genfun.CATALOG`;
every case then runs through :func:`_sides`, :func:`_first_mismatch` and
:func:`_verdict`.  The hook oracles read a cached
:func:`~fixedhooks.oracles.hook_tally`, which counts by cell decomposition
without listing partitions and computes each row of counts the first time a
case reads it; the T11, T12 and T13 companion oracles give each case one
row of counts up to its order.  :func:`_first_mismatch` compares that row
with the series' coefficient list.  The counting layer loads on the first
count a case reads: importing this module and :func:`build_grid` load none
of it, and neither do the CLI's ``series`` and ``table``.
"""

from __future__ import annotations

import io
import json
import operator
import time
from collections import Counter
from functools import cache
from itertools import chain
from typing import NamedTuple

from .genfun import (
    CATALOG,
    TheoremId,
    build_series,
    by_hook_exponent,
    t13_weight_shift,
    takes,
)
from .partitions import DEFAULT_VARIANT, Family, require_hook_size, require_variant
from .qseries import LaurentSeries, sum_summands

DEFAULT_ORDER = 30

# A [column-total] case sums a by-hook theorem over every column and
# fixedness; the grid adds one for each size k up to this.
_COLUMN_TOTAL_MAX_K = 4

VARIANT_TAGS = tuple(t for t in TheoremId if "variant" in takes(t))


class IdentityCase(NamedTuple):
    """One verification job: a theorem, its parameters, and a truncation order."""

    theorem: TheoremId
    order: int
    m: int | None = None
    k: int | None = None
    h: int | None = None
    check: str = "oracle"
    variant: str | None = None  # None = try every variant, pass if one matches

    @property
    def family(self) -> Family:
        return CATALOG[self.theorem].family

    def key(self):
        return (
            self.theorem.value,
            self.check,
            self.m if self.m is not None else -(10**9),
            self.k if self.k is not None else -(10**9),
            self.h if self.h is not None else -(10**9),
            self.variant or "",
        )

    def label(self) -> str:
        bits = [self.theorem.value]
        for name in ("m", "k", "h"):
            v = getattr(self, name)
            if v is not None:
                bits.append(f"{name}={v}")
        bits.append(f"N={self.order}")
        if self.variant:
            bits.append(f"variant={self.variant}")
        if self.check != "oracle":
            bits.append(f"[{self.check}]")
        return " ".join(bits)


class VerifyReport:
    """Outcome of one case: ``status`` is pass, fail, skipped or error,
    ``first_mismatch`` is (n, got, want), and ``variants`` maps each variant
    tried to whether it matched, a new dict for each report."""

    __slots__ = ("case", "status", "first_mismatch", "detail", "elapsed", "variants")

    def __init__(self, case: IdentityCase, status: str,
                 first_mismatch: tuple[int, int, int] | None = None, detail: str = "",
                 elapsed: float = 0.0, variants: dict[str, bool] | None = None):
        self.case = case
        self.status = status
        self.first_mismatch = first_mismatch
        self.detail = detail
        self.elapsed = elapsed
        self.variants = {} if variants is None else variants


# ---------------------------------------------------------------------------
# Running one case
# ---------------------------------------------------------------------------


@cache
def _oracles():
    """The counting layer, loaded on the first count a case reads, so that a
    run that only builds series never loads it."""
    from . import oracles

    return oracles


def _count(case: IdentityCase, table: str, *key) -> list[int]:
    """The entries (n, *key) of ``table`` in the tally of the case's family,
    for n below the case's order, read as one row.  One tally per family
    covers every order up to the default grid's."""
    tally = _oracles().hook_tally(max(case.order, DEFAULT_ORDER) - 1, case.family)
    return getattr(tally, table).row(key)[: case.order]


def fixedness_window(m: int, k: int, order: int) -> list[int]:
    """Fixedness values h (descending from k-1) whose by-hook series can
    reach below the order; the summand exponent grows linearly in -h, and,
    linear in the span l too, is least at l = 1 or l = k."""
    require_hook_size(k)
    out = []
    h = k - 1
    while True:
        if min(by_hook_exponent(m, k, h, 1), by_hook_exponent(m, k, h, k)) >= order:
            break
        out.append(h)
        h -= 1
    return out


def _sides(case: IdentityCase, variant: str | None):
    """The two sides (got, want) of one comparison of a case: got is a
    LaurentSeries or the counts of n = 0 .. order - 1, want those counts.

    Raises ValueError when the case's check is not one its catalog row
    lists, or a builder or an oracle rejects a parameter.
    """
    t, N, m, k, h = case.theorem, case.order, case.m, case.k, case.h
    if case.check not in CATALOG[t].checks:
        raise ValueError(f"{t.value} has no {case.check} check")
    table = CATALOG[t].table
    if case.check in ("h-aggregation", "column-total"):
        # Summing the by-hook builders over every reachable fixedness must
        # reproduce the all-hooks closed form in column m coefficientwise,
        # and summing them over every column too counts every size-k hook.
        # The terms' streams are chained and summed in one pass.  An empty
        # window means no size-k hook reaches the column below N: both
        # sides are zero there, and such a column adds no term to a total.
        if case.check == "h-aggregation":
            want = build_series(t, N, m=m, k=k).coefficients(0, N)
            build, columns = CATALOG[TheoremId.MFixedByHook].build, (m,)
        else:
            require_hook_size(k)  # also where no column reaches below N
            want = _count(case, "hooks_total", k)
            build, columns = CATALOG[t].build, range(1, N)
        terms = (build(m=mm, k=k, h=hh, order=N)
                 for mm in columns for hh in fixedness_window(mm, k, N))
        return sum_summands(N, chain.from_iterable(terms)), want

    if t is TheoremId.T13_Shifted:
        shift = t13_weight_shift(m, k, h)
        row = _oracles().colored_t13_row(N - 1 + shift, m, k, h, variant)
        got = [row[n + shift] if n + shift >= 0 else 0 for n in range(N)]
    else:
        got = build_series(t, N, m=m, k=k, h=h, variant=variant)
    if case.check == "colored":
        return got, _oracles().colored_t11_row(N - 1, m)
    if case.check == "restricted":
        return got, _oracles().restricted_t12_row(N - 1, m, h)
    if case.check == "hook-sum":  # 0-fixed hooks of every size in column m
        return got, _count(case, table, m, None, 0)
    mm = 1 if m is None else m  # the m = 1 theorems
    kk = mm if k is None else k  # T12 counts hooks from parts of size m
    key = (kk,) if table == "hooks_total" else (mm, kk, h)  # h is None in T14: every fixedness
    return got, _count(case, table, *key)


def _first_mismatch(got, want: list[int], order: int) -> tuple[int, int, int] | None:
    """First (n, got, want) disagreement below ``order``, or None; ``want``
    holds the counts of n = 0 .. order - 1.

    A series is read from its lowest power on, so stray negative powers of q
    count as mismatches; want is zero there.
    """
    lo = 0
    if isinstance(got, LaurentSeries):
        lo = min(0, got.min_exp)
        got = got.coefficients(lo, order)
    want = [0] * -lo + want
    if got == want:
        return None
    n = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return (n + lo, got[n], want[n])


def _verdict(case: IdentityCase, mismatches: dict) -> VerifyReport:
    """The report for a case from each tried variant's first mismatch.

    A case without variants passes or fails on its one comparison; one with
    variants passes when any matches, else fails on the default variant's
    mismatch.
    """
    if list(mismatches) == [None]:
        bad = mismatches[None]
        detail = ""
        if case.check == "h-aggregation" and not bad:
            window = fixedness_window(case.m, case.k, case.order)
            detail = f"h window {case.k - 1}..{window[-1]}" if window else "h window empty"
        return VerifyReport(case, "fail" if bad else "pass", bad, detail)
    outcomes = {v: bad is None for v, bad in mismatches.items()}
    detail = "; ".join(f"{v}={'match' if ok else 'mismatch'}" for v, ok in sorted(outcomes.items()))
    if any(outcomes.values()):
        return VerifyReport(case, "pass", detail=detail, variants=outcomes)
    prefer = DEFAULT_VARIANT if DEFAULT_VARIANT in mismatches else next(iter(mismatches))
    return VerifyReport(case, "fail", mismatches[prefer], detail=detail, variants=outcomes)


def run_case(case: IdentityCase) -> VerifyReport:
    """Run one case.  A check its catalog row does not list, or a parameter
    some builder or oracle rejects, makes it ``skipped``; any other
    exception makes it ``error``, with the exception as its detail."""
    started = time.perf_counter()
    variants = (case.variant,) if case.variant else CATALOG[case.theorem].variants or (None,)
    try:
        mismatches = {v: _first_mismatch(*_sides(case, v), case.order) for v in variants}
        report = _verdict(case, mismatches)
    except ValueError as exc:
        report = VerifyReport(case, "skipped", detail=str(exc))
    except Exception as exc:
        report = VerifyReport(case, "error", detail=f"{type(exc).__name__}: {exc}")
    report.elapsed = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


class GridSpec(NamedTuple):
    """Parameter ranges for grid assembly; None means the per-theorem default."""

    theorems: tuple[TheoremId, ...] | None = None
    order: int = DEFAULT_ORDER
    m_values: tuple[int, ...] | None = None
    k_values: tuple[int, ...] | None = None
    h_values: tuple[int, ...] | None = None
    families: tuple[Family, ...] | None = None
    variant: str | None = None  # None = adjudicate both where applicable


def build_grid(spec: GridSpec) -> list[IdentityCase]:
    """Expand a grid specification into sorted cases.

    Each theorem's default columns, sizes and fixedness values come from its
    row of :data:`~fixedhooks.genfun.CATALOG`; a parameter the spec gives
    replaces the default of every theorem that takes it.  Every case runs at
    ``spec.order``.  Parameter combinations violating a builder precondition
    (k < m for the by-part theorems) become skipped cases only when
    explicitly requested.  Raises ValueError when the order is negative,
    when a tag is not a :class:`TheoremId` value, a family not a
    :class:`Family` value or the variant not one of ``VARIANTS``, or when
    the spec gives values of m, k or h, or a variant, and no theorem left
    after the family filter takes it (see :func:`~fixedhooks.genfun.takes`);
    raises TypeError when the order or a given m, k or h value is not an
    integer (``operator.index``).
    """
    order = operator.index(spec.order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if spec.variant is not None:
        require_variant(spec.variant)
    tags = tuple(TheoremId) if spec.theorems is None else tuple(map(TheoremId, spec.theorems))
    if spec.families is not None:
        families = set(map(Family, spec.families))
        tags = tuple(t for t in tags if CATALOG[t].family in families)
    given = {"m": spec.m_values, "k": spec.k_values, "h": spec.h_values, "variant": spec.variant}
    taken = {name for t in tags for name in takes(t)}
    for name, value in given.items():
        if tags and value is not None and name not in taken:
            selected = ",".join(t.value for t in tags)
            raise ValueError(f"no selected theorem takes {name} (selected: {selected})")
    cases: list[IdentityCase] = []
    for t in tags:
        row, names = CATALOG[t], takes(t)
        variant = spec.variant if "variant" in names else None

        def values(name, default, *args):
            if name not in names:
                return (None,)
            return default(*args) if given[name] is None else map(operator.index, given[name])

        for m in values("m", lambda: row.m):
            for k in values("k", row.k, m):
                if "column-total" in row.checks and k <= _COLUMN_TOTAL_MAX_K:
                    cases.append(IdentityCase(t, order, k=k, check="column-total"))
                for h in values("h", row.h, k):
                    cases.extend(
                        IdentityCase(t, order, m, k, h, check, variant)
                        for check in row.checks
                        if check != "column-total"
                    )
    unique = {c.key(): c for c in cases}
    return [unique[key] for key in sorted(unique)]


def run_cases(cases: list[IdentityCase]) -> list[VerifyReport]:
    """Run cases one after another and return their reports case-sorted."""
    return [run_case(c) for c in sorted(cases, key=lambda c: c.key())]


def variant_notes(reports: list[VerifyReport]) -> list[str]:
    """Per-theorem resolution of which closed-form variant matched the oracle,
    over the reports that tried variants (no skipped or error report did)."""
    tried, matched = Counter(), Counter()
    for rep in reports:
        for name, ok in rep.variants.items():
            tried[rep.case.theorem.value, name] += 1
            matched[rep.case.theorem.value, name] += ok
    bits: dict[str, list[str]] = {}
    for t, name in sorted(tried):
        bits.setdefault(t, []).append(f"{name}: {matched[t, name]}/{tried[t, name]} cases match")
    return [f"variant resolution for {t}: {', '.join(b)}" for t, b in bits.items()]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


_REPORT_FIELDS = (
    "theorem", "m", "k", "h", "family", "check", "variant", "order",
    "status", "n", "coefficient", "oracle", "detail",
)


def report_row(rep: VerifyReport) -> dict:
    # elapsed stays on the report object only: rendered reports must be
    # byte-for-byte reproducible for a fixed grid.
    case = rep.case
    n, coeff, oracle = rep.first_mismatch or (None, None, None)
    return dict(zip(_REPORT_FIELDS, (
        case.theorem.value, case.m, case.k, case.h, case.family.value, case.check,
        case.variant, case.order, rep.status, n, coeff, oracle, rep.detail,
    )))


def render_text(reports: list[VerifyReport], notes: list[str]) -> str:
    lines = []
    for rep in reports:
        line = f"{rep.status.upper():7s} {rep.case.label()}"
        if rep.first_mismatch:
            n, got, want = rep.first_mismatch
            line += f"  first mismatch at q^{n}: {got} != oracle {want}"
        elif rep.detail:
            line += f"  ({rep.detail})"
        lines.append(line)
    counts = Counter(rep.status for rep in reports)
    summary = (
        f"total {len(reports)} cases: {counts['pass']} passed, "
        f"{counts['fail']} failed, {counts['skipped']} skipped"
    )
    if counts["error"]:
        summary += f", {counts['error']} errored"
    lines.append(summary)
    lines.extend(notes)
    return "\n".join(lines) + "\n"


def render_csv(reports: list[VerifyReport]) -> str:
    import csv  # only here, so that no other run loads it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(report_row, reports))  # None is written as ""
    return buf.getvalue()


def render_jsonl(reports: list[VerifyReport]) -> str:
    return "".join(json.dumps(report_row(rep)) + "\n" for rep in reports)
