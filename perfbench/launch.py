"""Run one workload program in this fresh interpreter.

    python3 perfbench/launch.py --mark FILE [--setup-only] [--trace FILE] cli ARGV...
    python3 perfbench/launch.py --mark FILE [--setup-only] [--trace FILE] sweep N...

``cli`` runs ``fixedhooks ARGV`` exactly as the console script does.
``sweep`` is the library-only series workload: it builds every series case
of the default grid at each order N and prints a sha256 of the coefficients.

``--mark`` receives ``time.monotonic()`` at the end of set-up: fixedhooks is
imported and the program's argv is parsed, before any case or series runs.
``--setup-only`` exits with 0 at that point.  ``--trace`` wraps each module's
public functions (see ``tracer.py``), restores them after the run, and writes
the spans to FILE.  The exit code and the streams are the program's own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class SetupDone(Exception):
    pass


def _mark(path: str, setup_only: bool):
    with open(path, "w") as fh:
        json.dump({"setup": time.monotonic()}, fh)
    if setup_only:
        raise SetupDone


def sweep_keys(build_grid, grid_spec, catalog, variant_tags):
    """(theorem, m, k, h, variant) of every default-grid case that has a
    builder and all of its parameters, both variants where a theorem has two."""
    keys = set()
    for case in build_grid(grid_spec()):
        spec = catalog[case.theorem]
        if spec.build is None or any(getattr(case, p) is None for p in spec.params):
            continue
        variants = ("derived", "stated") if case.theorem in variant_tags else (None,)
        for v in variants:
            keys.add((case.theorem, case.m, case.k, case.h, v))
    return sorted(keys, key=lambda key: (key[0].value, *((x is None, x) for x in key[1:])))


def coefficient_text(series, order: int) -> str:
    """The coefficients below ``order``, from the valuation or q^0 up."""
    v = series.valuation()
    lo = min(0, v) if v is not None else 0
    return f"{lo}:{','.join(map(str, series.coefficients(lo, order)))}\n"


def run_sweep(argv: list[str], mark) -> int:
    import fixedhooks
    from fixedhooks import genfun, verify

    orders = [int(a) for a in argv]
    mark()
    keys = sweep_keys(verify.build_grid, verify.GridSpec, genfun.CATALOG, verify.VARIANT_TAGS)
    digest = hashlib.sha256()
    for order in orders:
        for theorem, m, k, h, variant in keys:
            series = fixedhooks.build_series(theorem, order, m=m, k=k, h=h, variant=variant)
            digest.update(f"{theorem.value} {m} {k} {h} {variant} N={order} ".encode())
            digest.update(coefficient_text(series, order).encode())
        print(f"series N={order}: {len(keys)} built")
    print(f"sha256 {digest.hexdigest()}")
    return 0


def run_cli(argv: list[str], mark) -> int:
    from fixedhooks import cli

    make_parser = cli.make_parser

    def marking_parser():
        parser = make_parser()
        parse = parser.parse_args

        def parse_args(*args, **kwargs):
            ns = parse(*args, **kwargs)
            mark()
            return ns

        parser.parse_args = parse_args
        return parser

    cli.make_parser = marking_parser
    try:
        return cli.main(argv)
    finally:
        cli.make_parser = make_parser


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mark", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    ap.add_argument("program", choices=("cli", "sweep"))
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()

    import fixedhooks

    if not os.path.abspath(fixedhooks.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {fixedhooks.__file__}, not the checkout's {SRC}",
              file=sys.stderr)
        return 3

    tracer = None
    if opts.trace:
        tracer = Tracer()
        tracer.install()
    run = run_cli if opts.program == "cli" else run_sweep
    try:
        return run(opts.argv, lambda: _mark(opts.mark, opts.setup_only))
    except SetupDone:
        return 0
    finally:
        if tracer is not None:
            tracer.write(opts.trace, {"restored": tracer.restore()})


if __name__ == "__main__":
    sys.exit(main())
