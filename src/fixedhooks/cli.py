"""Command-line front end: verify identities, print series, counts, tables.

The argument parser states each input rule once: the flags each subcommand
and each ``count`` oracle reads, which of them it requires, their types and
their choices.  A ``verify --config`` file is read as the ``--flag=value``
argv it stands for, parsed alone, so that an error names the file, and
parsed again ahead of the user's flags, so a flag overrides the file and
every value passes its flag's own rules.

Exit codes: 0 success (verify: every case passed or was skipped), 1 at least
one identity mismatch and no error, 2 usage or configuration errors (each a
ValueError), 3 an internal error: a verify case that ended in ``error``, or
any other uncaught exception, whose traceback goes to stderr.  So 1 only
ever means a mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .genfun import CATALOG, build_series, builder_args, resolve_theorem
from .partitions import DEFAULT_VARIANT, VARIANTS, Family, Partition
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


def parse_range(text: str) -> tuple[int, ...]:
    """'3' -> (3,); '1..4' -> (1, 2, 3, 4); '-3..2' inclusive on both ends."""
    lo_s, dots, hi_s = text.strip().partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer or range {text!r}") from None
    return tuple(range(lo, hi + 1))


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


def _comma_list(parse, everything: str | None = None):
    """An argparse type for a comma-separated list of values ``parse``
    reads; the empty text is the empty list, and ``everything`` is None,
    no filter at all."""

    def convert(text: str):
        if text == everything:
            return None
        try:
            return tuple(map(parse, text.split(","))) if text else ()
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


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
        raise ValueError(f"cannot write {out}: {exc}") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Keys a verify --config file may set, each named after the flag it stands
# for (thms for --thm).
CONFIG_KEYS = ("thms", "m", "k", "h", "order", "family", "variant", "format")


def read_config(path: str) -> list[str]:
    """The ``--flag=value`` argv of a verify --config file: ``key = value``
    lines, one of CONFIG_KEYS each; '#' starts a comment.  The argv is
    parsed and its grid built here once, so that a value its flag rejects
    or a grid rule the file's own lines break is reported with the file's
    name."""
    argv = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = (part.strip() for part in line.partition("="))
                if not eq:
                    raise ValueError(f"bad config line {raw.rstrip()!r} in {path}")
                if key not in CONFIG_KEYS:
                    raise ValueError(f"unknown config key {key!r} in {path}; "
                                     f"choose from {', '.join(CONFIG_KEYS)}")
                argv.append(f"--{'thm' if key == 'thms' else key}={value}")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    try:
        verify_grid(make_parser(exit_on_error=False).parse_args(["verify", *argv]))
    except (argparse.ArgumentError, ValueError) as exc:
        raise ValueError(f"{exc} in {path}") from None
    return argv


def verify_grid(args) -> list:
    """The cases of verify's parsed flags (see :func:`verify.build_grid`,
    which raises ValueError on a parameter no selected theorem takes);
    raises ValueError when the grid is empty."""
    variant = None if args.variant == "both" else args.variant
    cases = build_grid(GridSpec(theorems=args.thm, order=args.order, m_values=args.m,
                                k_values=args.k, h_values=args.h, families=args.family,
                                variant=variant))
    if not cases:
        raise ValueError("grid is empty: no theorem matches the given filters")
    return cases


def cmd_verify(args) -> int:
    if args.all and args.thm is not None:
        raise ValueError("--all runs every theorem; it cannot be combined with "
                         f"{','.join(t.value for t in args.thm)!r}")
    reports = run_cases(verify_grid(args))
    notes = variant_notes(reports)
    if args.format == "text":
        _write(render_text(reports, notes), args.out)
    else:
        _write((render_csv if args.format == "csv" else render_jsonl)(reports), args.out)
        for note in notes:
            print(note, file=sys.stderr)
    statuses = {r.status for r in reports}
    return 3 if "error" in statuses else 1 if "fail" in statuses else 0


# ---------------------------------------------------------------------------
# series and table
# ---------------------------------------------------------------------------


def _render(theorem, columns: list, order: int, fmt: str, header: list[str] | None) -> str:
    """The coefficients of ``columns``, (params, series) pairs, in ``fmt``:
    json one row per coefficient of each column in turn, from
    q^min(0, valuation) up to the order; text and csv the ``header`` line
    when one is given, then one line per n, from q^min(0, every column's
    valuation) up to the order, its fields joined by tabs or commas."""
    if fmt == "json":
        rows = [{"theorem": theorem.value, **{name: params.get(name) for name in "mkh"},
                 "n": n, "coefficient": series.coefficient(n)}
                for params, series in columns for n in range(min(0, series.min_exp), order)]
        return json.dumps(rows, indent=2) + "\n"
    sep = "\t" if fmt == "text" else ","
    lines = [] if header is None else [header]
    if columns:
        for n in range(min(0, *(series.min_exp for _, series in columns)), order):
            lines.append([n, *(series.coefficient(n) for _, series in columns)])
    return "".join(sep.join(map(str, line)) + "\n" for line in lines)


def cmd_series(args) -> int:
    theorem = resolve_theorem(args.thm)
    params = {"m": args.m, "k": args.k, "h": args.h}
    series = build_series(theorem, args.order, variant=args.variant, **params)
    header = None if args.format == "text" else ["n", "coefficient"]
    _write(_render(theorem, [(params, series)], args.order, args.format, header), args.out)
    return 0


def cmd_table(args) -> int:
    theorem = resolve_theorem(args.thm)
    # Checked once for the whole table, so an empty range is checked too.
    ranges = builder_args(theorem, args.variant, m=args.m, k=args.k, h=args.h)
    ranges.pop("variant", None)
    varying = [name for name, vals in ranges.items() if len(vals) != 1]
    if len(varying) > 1:
        raise ValueError("table can vary at most one of --m/--k/--h")
    axis = varying[0] if varying else CATALOG[theorem].params[-1]

    columns = []
    for value in ranges[axis]:
        kwargs = {name: vals[0] for name, vals in ranges.items() if name != axis}
        kwargs[axis] = value
        columns.append((kwargs, build_series(theorem, args.order, variant=args.variant, **kwargs)))
    header = ["n", *(f"{axis}={kwargs[axis]}" for kwargs, _ in columns)]
    _write(_render(theorem, columns, args.order, args.format, header), args.out)
    return 0


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


# The flags each oracle reads besides --n, --format and --out: those it
# requires, then those it may take.  A tuple among the required flags asks
# for exactly one of them.  The parser rejects every other flag.
_COUNT_FLAGS = {
    "fixed-by-part": (("m", ("k", "sum_k"), "h"), ("family", "list")),
    "fixed-by-hook": (("m", ("k", "sum_k"), "h"), ("family", "list")),
    "hooks": (("k",), ("m", "family")),
    "colored-t11": (("m",), ("list",)),
    "restricted-t12": (("m", "h"), ()),
    "colored-t13": (("m", "k"), ("h", "variant")),
}


def cmd_count(args) -> int:
    from .oracles import (  # only here, so that no other subcommand loads it
        colored_t11_witnesses,
        count_colored_thm11,
        count_colored_thm13,
        count_fixed_hooks,
        count_hooks_of_size,
        count_restricted_thm12,
        fixed_hook_witnesses,
    )

    fam = Family(args.family)
    witnesses: list[str] | None = None
    if args.oracle in ("fixed-by-part", "fixed-by-hook"):
        query = (args.n, args.m, args.h, args.k, fam, args.oracle.removeprefix("fixed-by-"))
        value = count_fixed_hooks(*query)
        if args.list:
            witnesses = [str(p) for p in fixed_hook_witnesses(*query)]
    elif args.oracle == "hooks":
        value = count_hooks_of_size(args.n, args.k, args.m, fam)
    elif args.oracle == "colored-t11":
        value = count_colored_thm11(args.n, args.m)
        if args.list:
            witnesses = [
                render_colored(first, second)
                for first, second, _ in colored_t11_witnesses(args.n, args.m)
            ]
    elif args.oracle == "restricted-t12":
        value = count_restricted_thm12(args.n, args.m, args.h)
    else:  # colored-t13
        value = count_colored_thm13(args.n, args.m, args.k, args.h or 0, variant=args.variant)

    payload = {
        "oracle": args.oracle, "n": args.n, "m": args.m, "k": args.k,
        "h": args.h, "family": fam.value, "count": value,
    }
    if args.format == "json":
        if witnesses is not None:
            payload["witnesses"] = witnesses
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = [",".join(payload), ",".join("" if v is None else str(v) for v in payload.values())]
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
# argument plumbing
# ---------------------------------------------------------------------------


_PARAMS = {"m": "column index", "k": "part or hook size", "h": "fixedness offset"}

# The add_argument keywords of each count flag in _COUNT_FLAGS.
_COUNT_ARGS = {
    **{name: {"type": int, "help": what} for name, what in _PARAMS.items()},
    "family": {"choices": [f.value for f in Family], "help": "partition family"},
    "sum_k": {"action": "store_true", "help": "sum the count over all sizes k"},
    "list": {"action": "store_true", "help": "print the witnessing objects"},
    "variant": {"choices": VARIANTS, "default": DEFAULT_VARIANT,
                "help": "the closed-form variant to count"},
}


def _add_output(sub):
    sub.add_argument("--format", default="text", choices=("text", "csv", "json"))
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_series_flags(sub, param_type, variants=VARIANTS):
    """The flags verify, series and table share; --m/--k/--h of ``param_type``."""
    sub.add_argument("-N", "--order", type=order_arg, default=DEFAULT_ORDER,
                     help="truncation order: coefficients are reported for exponents below N")
    for name, what in _PARAMS.items():
        if param_type is parse_range:
            what += " (integer or a..b range)"
        sub.add_argument(f"--{name}", type=param_type, help=what)
    _add_output(sub)
    sub.add_argument("--variant", choices=variants,
                     help="pin a closed-form variant where a theorem has two")


def _add_count_flag(sub, name, **extra):
    sub.add_argument("--" + name.replace("_", "-"), **_COUNT_ARGS[name], **extra)


def make_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The CLI's parser; without ``exit_on_error`` a bad verify flag value
    raises ``argparse.ArgumentError`` instead of exiting."""
    parser = argparse.ArgumentParser(
        prog="fixedhooks",
        description="Verify fixed-hook partition identities by exact q-series expansion "
        "against independent partition counts.",
        exit_on_error=exit_on_error,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run identity checks over a parameter grid",
                        exit_on_error=exit_on_error)
    p.add_argument("--thm", type=_comma_list(resolve_theorem, "all"),
                   help="comma-separated theorem tags, or all (the default)")
    p.add_argument("--all", action="store_true", help="run the full default grid (not with --thm)")
    # "both" adjudicates the two variants case by case, so only verify offers it.
    _add_series_flags(p, parse_range, (*VARIANTS, "both"))
    p.add_argument("--family", type=_comma_list(Family),
                   help="comma-separated partition families: "
                   + ",".join(f.value for f in Family))
    p.add_argument("--config", help="key = value file of grid settings; flags override it")
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("series", help="print coefficients of one builder")
    p.add_argument("--thm", required=True, help="theorem tag")
    _add_series_flags(p, int)
    p.set_defaults(fn=cmd_series)

    p = subs.add_parser("count", help="evaluate a counting oracle")
    oracles = p.add_subparsers(dest="oracle", required=True)
    for oracle, (required, optional) in _COUNT_FLAGS.items():
        # Without abbreviations, so that --h where an oracle has none is not --help.
        o = oracles.add_parser(oracle, allow_abbrev=False)
        # The report names m, k, h and the family whether or not the oracle reads them.
        o.set_defaults(fn=cmd_count, m=None, k=None, h=None, family="all")
        o.add_argument("--n", type=weight_arg, required=True, help="partition weight")
        for name in required:
            if isinstance(name, tuple):
                group = o.add_mutually_exclusive_group(required=True)
                for one in name:
                    _add_count_flag(group, one)
            else:
                _add_count_flag(o, name, required=True)
        for name in optional:
            _add_count_flag(o, name)
        _add_output(o)

    p = subs.add_parser("table", help="coefficient table over one varying parameter")
    p.add_argument("--thm", required=True, help="theorem tag")
    _add_series_flags(p, parse_range)
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # The file's flags go first, so the user's own flags override them.
            args = parser.parse_args(argv[:1] + read_config(args.config) + argv[1:])
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only here, so that no other run loads it

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
