"""The pinned reports: each command list whose output is pinned byte for
byte, and each pair of commands that must print the same bytes.

A pin's commands run in turn as ``python -m fixedhooks`` would run them,
each command's words split on whitespace as its argv; their stdout,
concatenated, must hash to the pin's sha256, and each must exit with the
pin's status.  A pair's two commands must exit 0 and print the same bytes
(the first ``lines`` lines of the first, when lines is given).  Each
command runs through ``cli.main`` in this interpreter with its stdout and
stderr captured, so the census and series caches are shared between them.

The tier-1 tests (tests/test_pins.py) replay every pin up to order
100 and every pair.  Run as a script, the module replays them all:

    PYTHONPATH=src python tests/pins.py

It prints one PASS or FAIL line per pin and pair with its time, keeps going
after a failure, and exits 1 if any failed.  The run times below were
measured one pin per fresh interpreter, after its imports, on a 2-core
Xeon.
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from hashlib import sha256

from census_anchors import _same, run_checks
from fixedhooks import cli
from fixedhooks.verify import DEFAULT_ORDER


@dataclass(frozen=True)
class Pin:
    name: str
    commands: tuple[str, ...]
    sha256: str
    order: int = DEFAULT_ORDER  # its commands' largest --order, the default where none is given
    status: int = 0
    config: str = ""  # the text of the file that the word {config} names


@dataclass(frozen=True)
class Pair:
    name: str
    command: str
    twin: str
    lines: int | None = None  # compare only the command's first lines, when given


# Each pin says what it covers and how long it runs.  A change to a pinned
# report must update its hash and name the bug it fixes.
PINS = (
    # The default-grid report (1905 cases, 0.1 s).  Last changed when the
    # aggregate windows stopped one h past their last term below N, which
    # moved the 18 h-aggregation "h window" details.
    Pin("verify --all", ("verify --all",),
        "3843016917eb4b2fb552f8a5af9fa921b4164fe2d1c7bceea8a74211a4606298"),
    # The same 1905 reports through report_row (0.1 s each); stdout only is
    # pinned, since the variant notes go to stderr in these formats.
    Pin("verify --all --format csv", ("verify --all --format csv",),
        "0cf7828911b2158cbccbf9146b79a908d282698caec74da4729874c7057663b3"),
    Pin("verify --all --format json", ("verify --all --format json",),
        "485c20a7274e93efe8d5c40fb392239df4940d71fa98d221dd93156e49451744"),
    # The by-part and by-hook grids at order 36 read the hook census of
    # every partition of n <= 35 (572 passed, 0.04 s).
    Pin("census grid at n <= 35",
        ("verify --thm FixedByPart_m1,MFixedByPart,FixedByHook_m1,MFixedByHook --order 36",),
        "effe16fc89bd88a391e93ec8afe7990836e897cfe44330f150a5a28880669860", order=36),
    # Every default-grid case at N = 60 (1905 passed, 0.2 s).  Its hook
    # counts come from the cell decomposition alone; they are tied to
    # enumeration only through the tier-1 check of the tally against a
    # per-cell loop over every partition of n <= 29.
    Pin("verify --all --order 60", ("verify --all --order 60",),
        "4b6d4edaa33c2e541b0c9f8b9559d5d609e1773670cd3a37e9cf6506f46fde63", order=60),
    # A config line is parsed as the flag it names, so `order = 60` must
    # print the --order 60 report byte for byte (0.2 s).
    Pin("verify --config with order = 60", ("verify --config {config}",),
        "4b6d4edaa33c2e541b0c9f8b9559d5d609e1773670cd3a37e9cf6506f46fde63", order=60,
        config="order = 60\n"),
    # One file sets all eight config keys; its csv report (37 lines, stdout
    # only) is pinned (0.02 s).
    Pin("verify --config with every key", ("verify --config {config}",),
        "fee4026ba03b016fa543489b05f6f7489eec91d0cf81914ccbf2741a694210cf", order=20,
        config="thms = MFixedByHook,OddBySize,DistinctBySize\nm = 1..2\nk = 2..4\nh = -1..1\n"
               "order = 20\nfamily = all,odd\nvariant = both\nformat = csv\n"),
    # Every default-grid case at N = 100 (1905 passed, 0.5 s).
    Pin("verify --all --order 100", ("verify --all --order 100",),
        "02ffbd103f36da7c18695c9f1f2c5e61de0991bbf3c9c7d04574e10e5165d7de", order=100),
    # Every default-grid case at N = 150 (1905 passed, 1.2 s).  The report
    # was reproduced byte for byte by the census before packed rows (67 s).
    Pin("verify --all --order 150", ("verify --all --order 150",),
        "3bbc9fa7a06577bfeba9ea9b917abbc09001ed129cf85ef454674c737d673d49", order=150),
    # Every default-grid case at N = 200 (1905 passed, 1.8 s).  The eager
    # census, which filled every row, reproduced the report byte for byte
    # in 23-26 s.
    Pin("verify --all --order 200", ("verify --all --order 200",),
        "26d9c1855c6b322661b42aaafd7c7d5d62aa40d561e233a46dd0801a099b4e4f", order=200),
    # Every default-grid case at N = 300 (1905 passed, 3.1 s).  Each
    # aggregate check sums one chained summand stream; with a series built
    # and added per term it took about twice as long.
    Pin("verify --all --order 300", ("verify --all --order 300",),
        "5dfa1ef88c73703643e687ae67449ac4cf03e45d8bf7050cc4a8806bafe07356", order=300),
    # Every default-grid case at N = 400 (1905 passed, 10 s).  The derived
    # T13 rows sum their big parts by Horner's rule; a coin change per
    # number of big parts took about a quarter longer.
    Pin("verify --all --order 400", ("verify --all --order 400",),
        "6316d7014946987cc1077f907e00ec1cef716fcdd670ce1aef5320068cb5d7c6", order=400),
    # Every default-grid case at N = 600 (1905 passed, 27 s), past every
    # enumeration and census anchor.  The census built by one coin-change
    # sweep, before its tables came from packed divisions, printed the same
    # bytes.
    Pin("verify --all --order 600", ("verify --all --order 600",),
        "c1d4c62b5c04c056896d5b6dd2821f3fb716fd63dcdf9b855f8ffde7fe91d355", order=600),
    # The stated closed forms mismatch in 214 cases (DistinctBySize 108,
    # OddBySize 50, OddDistinctTotal 6, T13_Shifted 50), so this report
    # pins the FAIL lines and their (n, got, want) triples; it exits 1
    # (0.1 s).
    Pin("verify --all --variant stated", ("verify --all --variant stated",),
        "049d9feec88d0f41c08bd95a02b913ea1489804a9ae3e0754ad02026011fdd62", status=1),
    # Six count commands over both fixed-hook oracles and the hook oracle,
    # with and without --sum-k and --list (0.02 s).
    Pin("count", (
        "count fixed-by-part --n 12 --m 2 --h 2 --k 4 --list",
        "count fixed-by-part --n 14 --m 2 --h 0 --sum-k --list --format csv",
        "count fixed-by-hook --n 10 --m 3 --h 0 --sum-k --list --format json",
        "count fixed-by-hook --n 16 --m 1 --h -1 --k 3 --family odd",
        "count hooks --n 12 --k 3",
        "count hooks --n 12 --k 3 --m 2 --family distinct",
    ), "873d17bae01c7cb04d7602eb9227889ff6e60080f63fb877f3cfbe4b95050350"),
    # Five count commands over the T11, T12 and T13 companion oracles, with
    # --list, a negative h, the derived T13 variant and every format (0.02 s).
    Pin("companion count", (
        "count colored-t11 --n 10 --m 3 --list",
        "count colored-t11 --n 40 --m 2 --format json",
        "count restricted-t12 --n 30 --m 2 --h -2 --format csv",
        "count colored-t13 --n 20 --m 2 --k 4",
        "count colored-t13 --n 20 --m 2 --k 4 --h -1 --variant derived --format json",
    ), "c27eea9d096020cd6dcce6e793573105a5e73aef3d5473d47f0f0d67e33cffd6"),
    # Four series and four table commands over the text, csv and json
    # formats, a negative valuation, order 0 and an empty range (0.03 s).
    Pin("series and table", (
        "series --thm T14 --m 1 --k 1 --order 10",
        "series --thm DistinctBySize --m 3 --k 3 --h 2 --variant stated --format csv",
        "series --thm T12 --m 2 --h -1 --order 20 --format json",
        "series --thm T11 --m 3 --order 0 --format json",
        "table --thm T14 --k 1..4 --m 1 --order 20",
        "table --thm OddDistinctTotal --k 1..3 --variant stated --format csv",
        "table --thm MFixedByHook --m 2 --k 3 --h=-3..2 --format json",
        "table --thm T12 --m 2 --h 3..2 --format json",
    ), "d2c28bbd1eb25fa9d27cad500550b71624f076c52badb140a064bede684c9f15"),
)


def _pairs(name, command, twin, argses, lines=None):
    """One Pair for each args, its commands ``command`` and ``twin`` with
    args in the place of {}."""
    return tuple(Pair(f"{name}: {args}", command.format(args), twin.format(args), lines)
                 for args in argses)


PAIRS = (
    # series, table and count colored-t13 read the derived closed form
    # unless --variant stated is given, so each command without --variant
    # prints the bytes of its --variant derived twin.
    *_pairs("an unpinned variant reads derived", "{}", "{} --variant derived", (
        "series --thm DistinctBySize --m 2 --k 3 --h 0 --order 30",
        "table --thm DistinctBySize --m 2 --k 3 --h=-3..2",
        "count colored-t13 --n 20 --m 2 --k 4 --h 1",
    )),
    # Each cell has one part and one hook, so summing the h-fixed hooks of
    # column m over every part size or over every hook size counts the same
    # cells: count fixed-by-part --sum-k prints the bytes of its
    # fixed-by-hook twin (counts 43, 25 and 3).
    *_pairs("a sum over every size ignores by", "count fixed-by-part {} --sum-k --list",
            "count fixed-by-hook {} --sum-k --list", (
                "--n 14 --m 2 --h 0",
                "--n 16 --m 1 --h -1 --family odd",
                "--n 12 --m 3 --h 1 --family distinct",
            )),
    # series and table write their coefficients through one writer, so a
    # series in json prints the bytes of its one-column table.
    *_pairs("series prints its one-column table", "series {} --format json",
            "table {} --format json", (
                "--thm T14 --m 1 --k 1 --order 10",
                "--thm DistinctBySize --m 3 --k 3 --h 2 --variant stated",
            )),
    # factor_change cuts every run, an infinite product too, at the summing
    # window, so the first 400 coefficients at order 800 are those at order
    # 400.  One theorem of each kind with an infinite product: 1/(q;q)_inf
    # (T11), 1/(q^k;q)_inf (T14) and (-q;q^2)_inf (OddDistinctTotal).
    *_pairs("an infinite product at order 800 begins with its order 400",
            "series {} -N 800", "series {} -N 400", (
                "--thm T11 --m 2",
                "--thm T14 --m 2 --k 3",
                "--thm OddDistinctTotal --k 3 --variant derived",
            ), lines=400),
)


def run(argv):
    """``python -m fixedhooks`` with ``argv``, in this interpreter: its exit
    status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _stdout(name, command, status, config=None):
    """The stdout of ``command``; raises AssertionError, naming the entry,
    unless it exits with ``status``.  The word {config} is the path of
    the config file."""
    code, out, err = run([config if word == "{config}" else word for word in command.split()])
    if code != status:
        raise AssertionError(f"{name}: {command!r} exited {code}, not {status}\n{err}")
    return out


def replay(pin):
    """Raise AssertionError, naming the pin, unless its commands exit with
    its status and their stdout hashes to its sha256."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "pin.cfg")
        with open(config, "w") as fh:
            fh.write(pin.config)
        stdout = "".join(_stdout(pin.name, command, pin.status, config) for command in pin.commands)
    digest = sha256(stdout.encode()).hexdigest()
    if digest != pin.sha256:
        raise AssertionError(f"{pin.name}: stdout hashes to {digest}, pinned {pin.sha256}")


def compare(pair):
    """Raise AssertionError, naming the pair, unless both its commands exit
    0 and print the same lines (the first's first ``lines`` lines)."""
    _same(_stdout(pair.name, pair.command, 0).splitlines(keepends=True)[:pair.lines],
          _stdout(pair.name, pair.twin, 0).splitlines(keepends=True), pair.name)


def main():
    return run_checks({**{pin.name: partial(replay, pin) for pin in PINS},
                       **{pair.name: partial(compare, pair) for pair in PAIRS}},
                      "pinned reports and pairs")


if __name__ == "__main__":
    sys.exit(main())
