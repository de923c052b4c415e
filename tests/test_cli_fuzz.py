"""Random argv for the four subcommands, run in process.

Every run must end in a documented exit code: 0 success, 1 an identity
mismatch, 2 a usage error.  An uncaught exception exits 3 (or escapes
``main``), and either fails the test.
"""

import contextlib
import io
from itertools import chain

from hypothesis import HealthCheck, given, settings, strategies as st

from fixedhooks.cli import _COUNT_FLAGS, main
from fixedhooks.genfun import TheoremId, takes

SMALL = st.integers(-3, 9).map(str)
# Three values at most keep a verify grid small.
RANGE = st.integers(-3, 9).flatmap(
    lambda lo: st.integers(lo - 1, min(9, lo + 2)).map(lambda hi: f"{lo}..{hi}")
)
FLAGS = ["--m", "--k", "--h", "--n", "--order", "--family", "--variant", "--format",
         "--sum-k", "--list", "--thm"]
BAD = st.sampled_from(["", "x", "1.5", "3..", "..2", "-", "even", "bogus", "1..2"])


def _chance(draw, percent: int) -> bool:
    return draw(st.integers(0, 99)) < percent


@st.composite
def argvs(draw):
    """An argv each subcommand reads, then at times one corruption of it."""
    command = draw(st.sampled_from(["verify", "series", "count", "table"]))
    values = st.one_of(SMALL, RANGE) if command in ("verify", "table") else SMALL
    argv = [command]
    if command == "count":
        oracle = draw(st.sampled_from(list(_COUNT_FLAGS)))
        argv += [oracle, "--n", str(draw(st.integers(0, 12)))]
        required, optional = _COUNT_FLAGS[oracle]
        # A tuple in the row is a choice, such as --k or --sum-k.
        reads = tuple(chain.from_iterable(
            (name,) if isinstance(name, str) else name for name in required + optional))
    else:
        # verify without --thm runs every theorem's default grid.
        if command != "verify" or _chance(draw, 90):
            theorem = draw(st.sampled_from(list(TheoremId)))
            argv += ["--thm", theorem.value]
            reads = takes(theorem)
        else:
            reads = ("variant",)
        argv += ["--order", str(draw(st.integers(0, 10)))]
    if "sum_k" in reads and _chance(draw, 30):
        argv.append("--sum-k")
        reads = tuple(name for name in reads if name != "k")
    for name in ("m", "k", "h"):
        if name in reads and _chance(draw, 90):
            argv += [f"--{name}", draw(values)]
    if "list" in reads and _chance(draw, 30):
        argv.append("--list")
    if "family" in reads and _chance(draw, 30):
        argv += ["--family", draw(st.sampled_from(["all", "odd", "distinct", "odd-distinct"]))]
    if "variant" in reads and _chance(draw, 30):
        argv += ["--variant", draw(st.sampled_from(["stated", "derived"]))]
    if _chance(draw, 30):
        argv += ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    if _chance(draw, 30):
        at = draw(st.integers(1, len(argv)))
        corrupt = draw(st.sampled_from(["replace", "drop", "stray"]))
        if corrupt == "replace" and at < len(argv):
            argv[at] = draw(BAD)
        elif corrupt == "drop" and at < len(argv):
            del argv[at]
        else:
            argv[at:at] = [draw(st.sampled_from(FLAGS)), draw(st.one_of(SMALL, BAD))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_random_argv_ends_in_a_documented_exit_code(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
