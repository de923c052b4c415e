"""Command-line front end: verify identities, print series, counts, tables.

Exit codes: 0 success (verify: every case passed or was skipped), 1 at least
one identity mismatch and no error, 2 usage or configuration errors, 3 an
internal error: a verify case that ended in ``error``, or any other uncaught
exception, whose traceback goes to stderr.  So 1 only ever means a mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .genfun import CATALOG, build_series, resolve_theorem
from .oracles import (
    colored_t11_witnesses,
    count_colored_thm11,
    count_colored_thm13,
    count_fixed_hooks,
    count_hooks_of_size,
    count_restricted_thm12,
    fixed_hook_witnesses,
)
from .partitions import Family, Partition
from .verify import (
    DEFAULT_ORDER,
    GridSpec,
    build_grid,
    render_csv,
    render_jsonl,
    render_text,
    run_cases,
    variant_notes,
)


class UsageError(Exception):
    pass


def parse_range(text: str) -> tuple[int, ...]:
    """'3' -> (3,); '1..4' -> (1, 2, 3, 4); '-3..2' inclusive on both ends."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"bad range {text!r}") from None
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise UsageError(f"bad integer or range {text!r}") from None


def _nonnegative(name: str):
    """An argparse type for a non-negative integer called ``name``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {value}")
        return value

    return parse


order_arg = _nonnegative("order")  # a truncation order
weight_arg = _nonnegative("n")  # a partition weight


def read_config(path: str) -> dict[str, str]:
    """Simple key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {raw.rstrip()!r} in {path}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return values


def render_colored(first: Partition, second: Partition) -> str:
    """(2^4, 1r^2)-style rendering: sizes descending, second color marked 'r'
    and listed before first-color parts of the same size."""
    groups: list[tuple[int, int, int]] = []  # (size, second?, multiplicity)
    for parts, is_second in ((first.parts, 0), (second.parts, 1)):
        for size in sorted(set(parts), reverse=True):
            groups.append((size, is_second, parts.count(size)))
    groups.sort(key=lambda g: (-g[0], -g[1]))
    bits = []
    for size, is_second, mult in groups:
        token = f"{size}r" if is_second else f"{size}"
        if mult > 1:
            token += f"^{mult}"
        bits.append(token)
    return "(" + ", ".join(bits) + ")"


def _write(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Keys a verify --config file may set, each named after the flag it stands
# for (thms for --thm).
CONFIG_KEYS = ("thms", "m", "k", "h", "order", "family", "variant", "format")


def cmd_verify(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(unknown)} in {args.config}; "
                         f"choose from {', '.join(CONFIG_KEYS)}")

    def setting(name, flag_value):
        return flag_value if flag_value is not None else cfg.get(name)

    theorems = None
    thm_arg = setting("thms", args.thm)
    if thm_arg and thm_arg != "all":
        if args.all:
            raise UsageError(f"--all runs every theorem; it cannot be combined with {thm_arg!r}")
        theorems = tuple(resolve_theorem(t) for t in str(thm_arg).split(","))
    families = None
    fam_arg = setting("family", args.family)
    if fam_arg:
        families = tuple(Family(f) for f in str(fam_arg).split(","))
    variant = setting("variant", args.variant)
    if variant not in (None, "stated", "derived", "both"):
        raise UsageError(f"unknown variant {variant!r} in {args.config}")
    if variant == "both":
        variant = None
    order = setting("order", args.order)
    fmt = setting("format", args.format) or "text"

    spec = GridSpec(
        theorems=theorems,
        order=DEFAULT_ORDER if order is None else order_arg(str(order)),
        m_values=parse_range(str(setting("m", args.m))) if setting("m", args.m) is not None else None,
        k_values=parse_range(str(setting("k", args.k))) if setting("k", args.k) is not None else None,
        h_values=parse_range(str(setting("h", args.h))) if setting("h", args.h) is not None else None,
        families=families,
        variant=variant,
    )
    cases = build_grid(spec)
    if not cases:
        raise UsageError("grid is empty: no theorem matches the given filters")
    reports = run_cases(cases)
    notes = variant_notes(reports)
    if fmt == "text":
        _write(render_text(reports, notes), args.out)
    elif fmt == "csv":
        _write(render_csv(reports), args.out)
        for note in notes:
            print(note, file=sys.stderr)
    elif fmt == "json":
        _write(render_jsonl(reports), args.out)
        for note in notes:
            print(note, file=sys.stderr)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    statuses = {r.status for r in reports}
    return 3 if "error" in statuses else 1 if "fail" in statuses else 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _coefficient_rows(theorem, params: dict, series, order: int) -> list[dict]:
    """One row per coefficient of ``series`` built with ``params``, from
    q^min(0, valuation) up to the order."""
    return [
        {
            "theorem": theorem.value,
            "m": params.get("m"),
            "k": params.get("k"),
            "h": params.get("h"),
            "n": n,
            "coefficient": series.coefficient(n),
        }
        for n in range(min(0, series.min_exp), order)
    ]


def cmd_series(args) -> int:
    if args.thm is None:
        raise UsageError("series requires --thm")
    theorem = resolve_theorem(args.thm)
    params = {"m": args.m, "k": args.k, "h": args.h}
    series = build_series(theorem, args.order, variant=args.variant, **params)
    rows = _coefficient_rows(theorem, params, series, args.order)
    if args.format == "text":
        text = "".join(f"{r['n']}\t{r['coefficient']}\n" for r in rows)
    elif args.format == "csv":
        text = "n,coefficient\n" + "".join(f"{r['n']},{r['coefficient']}\n" for r in rows)
    elif args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise UsageError(f"unknown format {args.format!r}")
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


# The optional flags each oracle reads (--n is required by all of them); a
# flag outside an oracle's row is a usage error, never silently ignored.
_COUNT_FLAGS = {
    "fixed-by-part": ("m", "k", "h", "family", "sum_k", "list"),
    "fixed-by-hook": ("m", "k", "h", "family", "sum_k", "list"),
    "hooks": ("m", "k", "family"),
    "colored-t11": ("m", "list"),
    "restricted-t12": ("m", "h"),
    "colored-t13": ("m", "k", "h", "variant"),
}
_ORACLES = tuple(_COUNT_FLAGS)
_OPTIONAL_COUNT_FLAGS = ("m", "k", "h", "family", "sum_k", "list", "variant")


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"count {args.oracle} requires --{name}")


def cmd_count(args) -> int:
    if args.oracle not in _COUNT_FLAGS:
        raise UsageError(f"unknown oracle {args.oracle!r}; choose from {', '.join(_ORACLES)}")
    for name in _OPTIONAL_COUNT_FLAGS:
        value = getattr(args, name)
        if value is not None and value is not False and name not in _COUNT_FLAGS[args.oracle]:
            raise UsageError(f"count {args.oracle} does not take --{name.replace('_', '-')}")
    if args.sum_k and args.k is not None:
        raise UsageError("--sum-k sums over every k; drop --k")
    fam = Family(args.family) if args.family else Family.ALL
    witnesses: list[str] | None = None
    if args.oracle in ("fixed-by-part", "fixed-by-hook"):
        _require(args, "n", "m", "h")
        if not args.sum_k:
            _require(args, "k")
        query = (args.n, args.m, args.h, args.k, fam, args.oracle.removeprefix("fixed-by-"))
        value = count_fixed_hooks(*query)
        if args.list:
            witnesses = [str(p) for p in fixed_hook_witnesses(*query)]
    elif args.oracle == "hooks":
        _require(args, "n", "k")
        value = count_hooks_of_size(args.n, args.k, args.m, fam)
    elif args.oracle == "colored-t11":
        _require(args, "n", "m")
        value = count_colored_thm11(args.n, args.m)
        if args.list:
            witnesses = [
                render_colored(first, second)
                for first, second, _ in colored_t11_witnesses(args.n, args.m)
            ]
    elif args.oracle == "restricted-t12":
        _require(args, "n", "m", "h")
        value = count_restricted_thm12(args.n, args.m, args.h)
    else:  # colored-t13
        _require(args, "n", "m", "k")
        value = count_colored_thm13(
            args.n, args.m, args.k, args.h or 0, variant=args.variant or "stated"
        )

    if args.format == "json":
        payload = {
            "oracle": args.oracle, "n": args.n, "m": args.m, "k": args.k,
            "h": args.h, "family": fam.value, "count": value,
        }
        if witnesses is not None:
            payload["witnesses"] = witnesses
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["oracle,n,m,k,h,family,count"]
        lines.append(
            ",".join(
                "" if v is None else str(v)
                for v in (args.oracle, args.n, args.m, args.k, args.h, fam.value, value)
            )
        )
        if witnesses is not None:
            lines.extend(witnesses)
        text = "\n".join(lines) + "\n"
    else:
        lines = witnesses[:] if witnesses is not None else []
        lines.append(f"count: {value}")
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.thm is None:
        raise UsageError("table requires --thm")
    theorem = resolve_theorem(args.thm)
    params = CATALOG[theorem].params
    if CATALOG[theorem].build is None:
        raise UsageError(f"{theorem.value} has no series to tabulate")

    ranges: dict[str, tuple[int, ...]] = {}
    for name in ("m", "k", "h"):
        raw = getattr(args, name)
        if raw is None:
            continue
        if name not in params:
            raise UsageError(f"{theorem.value} does not take --{name}")
        ranges[name] = parse_range(raw)
    for name in params:
        if name not in ranges:
            raise UsageError(f"{theorem.value} requires --{name}")
    varying = [name for name, vals in ranges.items() if len(vals) != 1]
    if len(varying) > 1:
        raise UsageError("table can vary at most one of --m/--k/--h")
    axis = varying[0] if varying else params[-1]

    columns = []
    for value in ranges[axis]:
        kwargs = {name: vals[0] for name, vals in ranges.items() if name != axis}
        kwargs[axis] = value
        series = build_series(theorem, args.order, variant=args.variant, **kwargs)
        columns.append((value, kwargs, series))

    if args.format == "json":
        rows = [
            row
            for _, kwargs, series in columns
            for row in _coefficient_rows(theorem, kwargs, series, args.order)
        ]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        header = ["n"] + [f"{axis}={value}" for value, _, _ in columns]
        lines = [",".join(header)]
        if columns:
            lo = min(0, *(s.min_exp for _, _, s in columns))
            for n in range(lo, args.order):
                row = [str(n)] + [str(s.coefficient(n)) for _, _, s in columns]
                lines.append(",".join(row))
        if args.format == "text":
            text = "\n".join(line.replace(",", "\t") for line in lines) + "\n"
        elif args.format == "csv":
            text = "\n".join(lines) + "\n"
        else:
            raise UsageError(f"unknown format {args.format!r}")
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub, default_format="text", variants=("stated", "derived")):
    """The flags every subcommand reads."""
    sub.add_argument("--m", help="column index (integer or a..b range where allowed)")
    sub.add_argument("--k", help="part or hook size (integer or range)")
    sub.add_argument("--h", help="fixedness offset (integer or range)")
    sub.add_argument("--format", default=default_format, choices=("text", "csv", "json"))
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--variant", choices=variants,
                     help="pin a closed-form variant where a theorem has two")


def _add_order(sub, default):
    sub.add_argument("-N", "--order", type=order_arg, default=default,
                     help="truncation order: coefficients are reported for exponents below N")


def _add_family(sub):
    sub.add_argument("--family", help="partition family filter: all,odd,distinct,odd-distinct")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedhooks",
        description="Verify fixed-hook partition identities by exact q-series expansion "
        "against independent partition counts.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # verify's --order and --format have no argparse default, so that a
    # --config file can set them; cmd_verify falls back to 30 and text.
    p = subs.add_parser("verify", help="run identity checks over a parameter grid")
    p.add_argument("--thm", help="comma-separated theorem tags (default: full grid)")
    p.add_argument("--all", action="store_true", help="run the full default grid (not with --thm)")
    _add_order(p, None)
    # "both" adjudicates the two variants case by case, so only verify offers it.
    _add_common(p, default_format=None, variants=("stated", "derived", "both"))
    _add_family(p)
    p.add_argument("--config", help="key = value file overriding the grid defaults")
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("series", help="print coefficients of one builder")
    p.add_argument("--thm", help="theorem tag")
    _add_order(p, 30)
    _add_common(p)
    p.set_defaults(fn=cmd_series, _scalar_params=True)

    p = subs.add_parser("count", help="evaluate a counting oracle")
    p.add_argument("oracle", help="one of: " + ", ".join(_ORACLES))
    p.add_argument("--n", type=weight_arg, help="partition weight")
    p.add_argument("--sum-k", action="store_true", help="sum the count over all sizes k")
    p.add_argument("--list", action="store_true", help="print the witnessing objects")
    _add_common(p)
    _add_family(p)
    p.set_defaults(fn=cmd_count, _scalar_params=True)

    p = subs.add_parser("table", help="coefficient table over one varying parameter")
    p.add_argument("--thm", help="theorem tag")
    _add_order(p, 30)
    _add_common(p)
    p.set_defaults(fn=cmd_table)

    return parser


def _coerce_scalars(args):
    """series and count take plain integers for --m/--k/--h."""
    for name in ("m", "k", "h"):
        raw = getattr(args, name, None)
        if raw is None:
            continue
        values = parse_range(raw)
        if len(values) != 1:
            raise UsageError(f"--{name} must be a single integer here, got {raw!r}")
        setattr(args, name, values[0])


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "_scalar_params", False):
            _coerce_scalars(args)
        return args.fn(args)
    except (UsageError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
