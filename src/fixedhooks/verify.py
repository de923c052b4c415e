"""Identity verification: series coefficients against counting oracles.

A grid of :class:`IdentityCase` checks runs in one process, case by case
in sorted case-key order, so reports are byte-for-byte reproducible for a
fixed grid; each case produces one :class:`VerifyReport`.  The hook oracles
read a cached :func:`~fixedhooks.oracles.hook_tally`, which counts by cell
decomposition without listing partitions and which the default grid
computes once per family.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .genfun import CATALOG, TheoremId, build_series, t13_weight_shift
from .oracles import (
    count_colored_thm11,
    count_colored_thm13,
    count_restricted_thm12,
    hook_tally,
)
from .partitions import Family
from .qseries import LaurentSeries

DEFAULT_ORDER = 30

# Which comparisons make up a case for each theorem.  "oracle" is the plain
# coefficient-vs-enumeration check; the closed forms carry extra companions.
CHECKS: dict[TheoremId, tuple[str, ...]] = {
    TheoremId.T11_ClosedForm: ("colored", "hook-sum"),
    TheoremId.T12_ClosedForm: ("by-part", "restricted"),
    TheoremId.T13_Shifted: ("shift",),
    TheoremId.T14_HooksOfSizeK: ("oracle", "h-aggregation"),
    TheoremId.FixedByPart_m1: ("oracle",),
    TheoremId.MFixedByPart: ("oracle",),
    TheoremId.OddBySize: ("oracle",),
    TheoremId.DistinctBySize: ("oracle",),
    TheoremId.FixedByHook_m1: ("oracle",),
    TheoremId.MFixedByHook: ("oracle",),
    TheoremId.OddByHook: ("oracle", "column-total"),
    TheoremId.DistinctByHook: ("oracle", "column-total"),
    TheoremId.OddDistinctByHook: ("oracle",),
    TheoremId.OddDistinctTotal: ("oracle",),
}

VARIANT_TAGS = (
    TheoremId.OddBySize,
    TheoremId.DistinctBySize,
    TheoremId.OddDistinctTotal,
    TheoremId.T13_Shifted,
)


@dataclass(frozen=True)
class IdentityCase:
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


@dataclass
class VerifyReport:
    """Outcome of one case; ``first_mismatch`` is (n, coefficient, oracle)."""

    case: IdentityCase
    status: str  # pass | fail | skipped
    first_mismatch: tuple[int, int, int] | None = None
    detail: str = ""
    elapsed: float = 0.0
    variants: dict[str, bool] = field(default_factory=dict)  # variant tried -> matched


# ---------------------------------------------------------------------------
# Oracle access (batched through one hook tally per family)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tally(order: int, family: Family, max_m: int):
    # One tally per family covers every order up to the default grid's 30;
    # a larger order counts every n below it, by decomposition.
    return hook_tally(max(order - 1, DEFAULT_ORDER - 1), family, max_m)


def _series_matches(series: LaurentSeries, oracle, order: int):
    """First (n, coefficient, oracle) disagreement below ``order``, or None.

    Exponents below zero are compared against zero, so stray negative powers
    of q count as mismatches.
    """
    for n in range(min(0, series.min_exp), order):
        want = oracle(n) if n >= 0 else 0
        got = series.coefficient(n)
        if got != want:
            return (n, got, want)
    return None


def column_window(k: int, order: int) -> range:
    """Columns m whose by-hook series can reach below the order: the cheapest
    term costs at least (m-1) + k."""
    return range(1, max(1, order - k + 1) + 1)


def fixedness_window(m: int, k: int, order: int) -> list[int]:
    """Fixedness values h (descending from k-1) whose by-hook series can
    reach below the order; the summand exponent grows linearly in -h."""
    out = []
    h = k - 1
    while True:
        emin = min(
            (m - 1) * (2 * k - h - l) + k + l * (k - h - 1) for l in range(1, k + 1)
        )
        if emin > order:
            break
        out.append(h)
        h -= 1
    return out


def _variants_for(case: IdentityCase) -> tuple[str | None, ...]:
    if case.theorem in VARIANT_TAGS:
        return (case.variant,) if case.variant else ("derived", "stated")
    return (case.variant,)


def _oracle_for(case: IdentityCase):
    """Return n -> expected coefficient for the case's series comparison."""
    t, m, k, h = case.theorem, case.m, case.k, case.h
    fam = case.family
    max_m = max(6, m or 1)
    if t in (TheoremId.FixedByPart_m1, TheoremId.MFixedByPart, TheoremId.OddBySize,
             TheoremId.DistinctBySize):
        tal = _tally(case.order, fam, max_m)
        mm = 1 if m is None else m
        return lambda n: tal.by_part.get((n, mm, k, h), 0)
    if t in (TheoremId.FixedByHook_m1, TheoremId.MFixedByHook, TheoremId.OddByHook,
             TheoremId.DistinctByHook, TheoremId.OddDistinctByHook):
        tal = _tally(case.order, fam, max_m)
        mm = 1 if m is None else m
        return lambda n: tal.by_hook.get((n, mm, k, h), 0)
    if t is TheoremId.T14_HooksOfSizeK:
        tal = _tally(case.order, fam, max_m)
        return lambda n: tal.hooks_col.get((n, m, k), 0)
    if t is TheoremId.OddDistinctTotal:
        tal = _tally(case.order, fam, max_m)
        return lambda n: tal.hooks_total.get((n, k), 0)
    raise ValueError(f"no direct oracle for {t.value}")


def run_case(case: IdentityCase) -> VerifyReport:
    started = time.perf_counter()
    try:
        report = _run_case_inner(case)
    except ValueError as exc:
        report = VerifyReport(case, "skipped", detail=str(exc))
    report.elapsed = time.perf_counter() - started
    return report


def _run_case_inner(case: IdentityCase) -> VerifyReport:
    t, N = case.theorem, case.order
    m, k, h = case.m, case.k, case.h

    if case.check == "h-aggregation":
        # Summing the by-hook builders over every reachable fixedness must
        # reproduce the all-hooks closed form coefficientwise.  An empty
        # window means no size-k hook reaches column m below N: both sides
        # are zero there.
        target = build_series(TheoremId.T14_HooksOfSizeK, N, m=m, k=k)
        window = fixedness_window(m, k, N)
        acc = LaurentSeries.zero(N)
        for hh in window:
            acc = acc + build_series(TheoremId.MFixedByHook, N, m=m, k=k, h=hh)
        mismatch = _series_matches(acc, lambda n: target.coefficient(n), N)
        if mismatch:
            return VerifyReport(case, "fail", mismatch)
        detail = f"h window {k-1}..{window[-1]}" if window else "h window empty"
        return VerifyReport(case, "pass", detail=detail)

    if case.check == "column-total":
        # Summing over all columns and fixedness counts every size-k hook.
        # hooks_total does not depend on max_m, so share the by-column tally.
        tal = _tally(N, case.family, 6)
        acc = LaurentSeries.zero(N)
        for mm in column_window(k, N):
            for hh in fixedness_window(mm, k, N):
                acc = acc + build_series(t, N, m=mm, k=k, h=hh)
        mismatch = _series_matches(acc, lambda n: tal.hooks_total.get((n, k), 0), N)
        if mismatch:
            return VerifyReport(case, "fail", mismatch)
        return VerifyReport(case, "pass")

    if t is TheoremId.T13_Shifted:
        shift = t13_weight_shift(m, k, h)
        tal = _tally(N, Family.ALL, max(6, m))
        outcomes = {}
        mismatch_by = {}
        for variant in _variants_for(case):
            bad = None
            for n in range(N):
                lhs = tal.by_part.get((n, m, k, h), 0)
                rhs = count_colored_thm13(n + shift, m, k, h, variant=variant)
                if lhs != rhs:
                    bad = (n, rhs, lhs)
                    break
            outcomes[variant] = bad is None
            mismatch_by[variant] = bad
        return _variant_verdict(case, outcomes, mismatch_by)

    if t is TheoremId.T11_ClosedForm:
        series = build_series(t, N, m=m)
        if case.check == "colored":
            oracle = lambda n: count_colored_thm11(n, m)
        else:  # hook-sum
            tal = _tally(N, Family.ALL, max(6, m))
            oracle = lambda n: sum(tal.by_hook.get((n, m, kk, 0), 0) for kk in range(1, n + 1))
        mismatch = _series_matches(series, oracle, N)
        return VerifyReport(case, "fail" if mismatch else "pass", mismatch)

    if t is TheoremId.T12_ClosedForm:
        series = build_series(t, N, m=m, h=h)
        if case.check == "by-part":
            tal = _tally(N, Family.ALL, max(6, m))
            oracle = lambda n: tal.by_part.get((n, m, m, h), 0)
        else:  # restricted
            oracle = lambda n: count_restricted_thm12(n, m, h)
        mismatch = _series_matches(series, oracle, N)
        return VerifyReport(case, "fail" if mismatch else "pass", mismatch)

    # plain series-vs-oracle comparison, possibly across variants
    oracle = _oracle_for(case)
    outcomes = {}
    mismatch_by = {}
    for variant in _variants_for(case):
        series = build_series(t, N, m=m, k=k, h=h, variant=variant)
        bad = _series_matches(series, oracle, N)
        outcomes[variant] = bad is None
        mismatch_by[variant] = bad
    return _variant_verdict(case, outcomes, mismatch_by)


def _variant_verdict(case, outcomes, mismatch_by) -> VerifyReport:
    if list(outcomes) == [None]:
        bad = mismatch_by[None]
        return VerifyReport(case, "fail" if bad else "pass", bad)
    detail = "; ".join(f"{v}={'match' if outcomes[v] else 'mismatch'}" for v in sorted(outcomes))
    if any(outcomes.values()):
        return VerifyReport(case, "pass", detail=detail, variants=outcomes)
    prefer = "derived" if "derived" in mismatch_by else next(iter(mismatch_by))
    return VerifyReport(case, "fail", mismatch_by[prefer], detail=detail, variants=outcomes)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass
class GridSpec:
    """Parameter ranges for grid assembly; None means the per-theorem default."""

    theorems: tuple[TheoremId, ...] | None = None
    order: int = DEFAULT_ORDER
    m_values: tuple[int, ...] | None = None
    k_values: tuple[int, ...] | None = None
    h_values: tuple[int, ...] | None = None
    families: tuple[Family, ...] | None = None
    variant: str | None = None  # None = adjudicate both where applicable


_DEFAULT_GRID_TAGS = (
    TheoremId.T11_ClosedForm,
    TheoremId.T12_ClosedForm,
    TheoremId.T13_Shifted,
    TheoremId.T14_HooksOfSizeK,
    TheoremId.FixedByPart_m1,
    TheoremId.MFixedByPart,
    TheoremId.OddBySize,
    TheoremId.DistinctBySize,
    TheoremId.FixedByHook_m1,
    TheoremId.MFixedByHook,
    TheoremId.OddByHook,
    TheoremId.DistinctByHook,
    TheoremId.OddDistinctByHook,
    TheoremId.OddDistinctTotal,
)

_BY_PART_TAGS = (
    TheoremId.MFixedByPart,
    TheoremId.OddBySize,
    TheoremId.DistinctBySize,
)
_BY_HOOK_TAGS = (
    TheoremId.MFixedByHook,
    TheoremId.OddByHook,
    TheoremId.DistinctByHook,
    TheoremId.OddDistinctByHook,
)
_M1_TAGS = (TheoremId.FixedByPart_m1, TheoremId.FixedByHook_m1)


def build_grid(spec: GridSpec) -> list[IdentityCase]:
    """Expand a grid specification into sorted cases.

    Defaults: m in 1..4, k up to 8, h in -3..k-1 for the fixedness
    families; the closed forms use the slightly smaller grids they are
    specified at (T13 and T14 with m in 1..3, T13 with h in -2..2).  Every
    case runs at ``spec.order``.
    Parameter combinations violating a builder precondition (k < m for the
    by-part theorems) become skipped cases only when explicitly requested.
    """
    tags = spec.theorems if spec.theorems is not None else _DEFAULT_GRID_TAGS
    if spec.families is not None:
        tags = tuple(t for t in tags if CATALOG[t].family in spec.families)
    cases: list[IdentityCase] = []

    def ms(default):
        return spec.m_values if spec.m_values is not None else default

    def ks(default):
        return spec.k_values if spec.k_values is not None else default

    def hs_for(k, default):
        return spec.h_values if spec.h_values is not None else default(k)

    for t in tags:
        checks = CHECKS[t]
        variant = spec.variant if t in VARIANT_TAGS else None
        if t is TheoremId.T11_ClosedForm:
            for m in ms(range(1, 5)):
                for check in checks:
                    cases.append(IdentityCase(t, spec.order, m=m, check=check))
        elif t is TheoremId.T12_ClosedForm:
            for m in ms(range(1, 5)):
                for h in hs_for(None, lambda _k: range(-3, 4)):
                    for check in checks:
                        cases.append(IdentityCase(t, spec.order, m=m, h=h, check=check))
        elif t is TheoremId.T13_Shifted:
            for m in ms(range(1, 4)):
                for k in ks(range(m, 7)):
                    for h in hs_for(k, lambda _k: range(-2, 3)):
                        cases.append(
                            IdentityCase(t, spec.order, m=m, k=k, h=h, variant=variant)
                        )
        elif t is TheoremId.T14_HooksOfSizeK:
            for m in ms(range(1, 4)):
                for k in ks(range(1, 7)):
                    for check in checks:
                        cases.append(IdentityCase(t, spec.order, m=m, k=k, check=check))
        elif t is TheoremId.OddDistinctTotal:
            for k in ks(range(1, 7)):
                cases.append(IdentityCase(t, spec.order, k=k, variant=variant))
        elif t in _M1_TAGS:
            for k in ks(range(1, 9)):
                for h in hs_for(k, lambda k: range(-3, k)):
                    cases.append(IdentityCase(t, spec.order, k=k, h=h))
        elif t in _BY_PART_TAGS:
            for m in ms(range(1, 5)):
                for k in ks(range(max(1, m), 9)):
                    for h in hs_for(k, lambda k: range(-3, k)):
                        cases.append(
                            IdentityCase(t, spec.order, m=m, k=k, h=h, variant=variant)
                        )
        elif t in _BY_HOOK_TAGS:
            for m in ms(range(1, 5)):
                for k in ks(range(1, 9)):
                    if "column-total" in checks and k <= 4:
                        cases.append(IdentityCase(t, spec.order, k=k, check="column-total"))
                    for h in hs_for(k, lambda k: range(-3, k)):
                        cases.append(
                            IdentityCase(t, spec.order, m=m, k=k, h=h, variant=variant)
                        )
    unique = {c.key(): c for c in cases}
    return [unique[key] for key in sorted(unique)]


def run_cases(cases: list[IdentityCase]) -> list[VerifyReport]:
    """Run cases one after another and return their reports case-sorted."""
    return [run_case(c) for c in sorted(cases, key=lambda c: c.key())]


def variant_notes(reports: list[VerifyReport]) -> list[str]:
    """Per-theorem resolution of which closed-form variant matched the oracle."""
    stats: dict[TheoremId, dict[str, list[int]]] = {}
    for rep in reports:
        if rep.case.theorem not in VARIANT_TAGS or rep.status == "skipped":
            continue
        per = stats.setdefault(rep.case.theorem, {})
        for name, ok in rep.variants.items():
            tally = per.setdefault(name, [0, 0])
            tally[0] += ok
            tally[1] += 1
    notes = []
    for t in sorted(stats, key=lambda t: t.value):
        bits = ", ".join(
            f"{name}: {ok}/{total} cases match"
            for name, (ok, total) in sorted(stats[t].items())
        )
        notes.append(f"variant resolution for {t.value}: {bits}")
    return notes


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def report_row(rep: VerifyReport) -> dict:
    # elapsed stays on the report object only: rendered reports must be
    # byte-for-byte reproducible for a fixed grid.
    case = rep.case
    n = coeff = oracle = None
    if rep.first_mismatch:
        n, coeff, oracle = rep.first_mismatch
    return {
        "theorem": case.theorem.value,
        "m": case.m,
        "k": case.k,
        "h": case.h,
        "family": case.family.value,
        "check": case.check,
        "variant": case.variant,
        "order": case.order,
        "status": rep.status,
        "n": n,
        "coefficient": coeff,
        "oracle": oracle,
        "detail": rep.detail,
    }


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
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for rep in reports:
        counts[rep.status] += 1
    lines.append(
        f"total {len(reports)} cases: {counts['pass']} passed, "
        f"{counts['fail']} failed, {counts['skipped']} skipped"
    )
    lines.extend(notes)
    return "\n".join(lines) + "\n"


_REPORT_FIELDS = (
    "theorem", "m", "k", "h", "family", "check", "variant", "order",
    "status", "n", "coefficient", "oracle", "detail",
)


def render_csv(reports: list[VerifyReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        row = report_row(rep)
        writer.writerow({f: ("" if row[f] is None else row[f]) for f in _REPORT_FIELDS})
    return buf.getvalue()


def render_jsonl(reports: list[VerifyReport]) -> str:
    return "".join(json.dumps(report_row(rep)) + "\n" for rep in reports)
