import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixedhooks
from fixedhooks.cli import (
    _COUNT_ARGS,
    _COUNT_FLAGS,
    CONFIG_KEYS,
    main,
    parse_range,
    read_config,
    render_colored,
)
from fixedhooks.partitions import Partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(*argv):
    """The exit code of the CLI, including argparse's own usage errors."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_parse_range():
    assert parse_range("3") == (3,)
    assert parse_range("1..4") == (1, 2, 3, 4)
    assert parse_range("-3..2") == (-3, -2, -1, 0, 1, 2)
    with pytest.raises(Exception):
        parse_range("x..y")


def test_render_colored():
    assert render_colored(Partition((7, 1, 1, 1)), Partition(())) == "(7, 1^3)"
    assert render_colored(Partition((6, 1, 1, 1)), Partition((1,))) == "(6, 1r, 1^3)"
    assert render_colored(Partition((2, 2, 2, 2)), Partition((2,))) == "(2r, 2^4)"
    assert render_colored(Partition((1, 1, 1)), Partition((2, 2, 1, 1, 1))) == "(2r^2, 1r^3, 1^3)"


def test_verify_single_case_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "T11", "--m", "3", "--order", "12")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_theorem_is_usage_error(capsys):
    # --thm's own type rejects the tag while the parser reads argv.
    assert run_cli_exit("verify", "--thm", "T99") == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --thm: unknown theorem tag 'T99'" in err


def test_verify_pinned_failing_variant_gives_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--thm", "OddBySize", "--m", "2", "--k", "3", "--h", "0",
        "--order", "12", "--variant", "stated",
    )
    assert code == 1
    assert "FAIL" in out
    assert "first mismatch" in out


def test_verify_csv_and_json_formats(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--thm", "T12", "--m", "1..2", "--h", "0..1",
        "--order", "10", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theorem,")
    assert all("pass" in line for line in lines[1:])

    code, out, _ = run_cli(
        capsys, "verify", "--thm", "T12", "--m", "1", "--h", "0",
        "--order", "10", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["check"] for r in rows} == {"by-part", "restricted"}


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("thms = T11\nm = 1..2\norder = 10  # comment\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "T11_ClosedForm m=1 N=10" in out
    assert "T11_ClosedForm m=2 N=10" in out
    # flags override the file
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--m", "3", "--order", "12")
    assert code == 0
    assert "T11_ClosedForm m=3 N=12" in out and "m=1 " not in out
    cfg.write_text("thms = T11\nm = 1\norder = 10\nformat = csv\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert out.startswith("theorem,")


@pytest.mark.parametrize("line", ["ordr = 10", "jobs = 2", "order = -1", "order = ten",
                                  "variant = bogus", "variant = auto", "thms = T99",
                                  "family = bogus", "k = 3", "family = odd",
                                  "variant = stated"])
def test_verify_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, line):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"thms = T11\nm = 1\n{line}\n")
    # An unknown key is rejected as the file is read; a bad value fails its
    # flag's own type or choices when the parser reads the file's flags, and
    # a grid rule the file's lines break (T11 takes no k and no variant; it
    # counts no odd family) fails when their grid is built.  Each error
    # names the file.
    assert run_cli_exit("verify", "--config", str(cfg)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert str(cfg) in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ("verify", "--thm", "T12", "--m", "1", "--h", "0", "--order", "5"),
    ("series", "--thm", "T12", "--m", "1", "--h", "0", "--order", "5"),
])
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, command):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "report.txt"):
        code, out, err = run_cli(capsys, *command, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
    code, _, _ = run_cli(capsys, *command, "--out", str(tmp_path / "report.txt"))
    assert code == 0 and (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("argv, config", [
    (("--all", "--thm", "T11", "--order", "5"), None),
    (("--all", "--order", "5"), "thms = T11\n"),
])
def test_verify_all_with_a_theorem_filter_is_usage_error(tmp_path, capsys, argv, config):
    # --all runs every theorem; it must not silently drop the filter.
    if config is not None:
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and "--all" in err


@pytest.mark.parametrize("argv", [
    ("--thm", "T11", "--m", "1", "--k", "3"),
    ("--thm", "T11,T12", "--m", "1", "--k", "2"),
    # OddBySize takes --h, but --family all leaves only T11.
    ("--thm", "T11,OddBySize", "--family", "all", "--m", "1", "--h", "0"),
    ("--thm", "T11", "--m", "1", "--variant", "stated"),
])
def test_verify_rejects_a_parameter_no_selected_theorem_takes(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--order", "6")
    assert code == 2
    assert out == "" and err.startswith("error: no selected theorem takes ")


def test_verify_variant_both_is_no_variant_at_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "T11", "--m", "1", "--order", "5",
                           "--variant", "both")
    assert code == 0
    assert "total 2 cases: 2 passed" in out


def test_verify_without_config_runs_at_order_30(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "T14", "--m", "1", "--k", "2")
    assert code == 0
    assert "T14_HooksOfSizeK m=1 k=2 N=30" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--thm", "T11", "--m", "1", "--order", "-5"),
    ("series", "--thm", "T11", "--m", "1", "--order", "-3"),
    ("table", "--thm", "T14", "--m", "1", "--k", "1..2", "--order", "-1"),
])
def test_negative_order_is_usage_error(capsys, argv):
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "order must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--thm", "T11", "--m", "1", "--order", "8", "--jobs", "2"),
    ("series", "--thm", "T11", "--m", "1", "--jobs", "2"),
    ("count", "hooks", "--n", "3", "--k", "1", "--jobs", "2"),
    ("table", "--thm", "T14", "--m", "1", "--k", "1..2", "--jobs", "2"),
    ("series", "--thm", "T11", "--m", "1", "--family", "odd"),
    ("table", "--thm", "T14", "--m", "1", "--k", "1..2", "--config", "grid.cfg"),
    ("count", "hooks", "--n", "3", "--k", "1", "--order", "5"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("count", "colored-t11", "--n", "10", "--m", "3", "--variant", "both"),
    ("count", "colored-t13", "--n", "10", "--m", "2", "--k", "3", "--variant", "both"),
    ("series", "--thm", "OddBySize", "--m", "2", "--k", "3", "--h", "0", "--order", "6",
     "--variant", "both"),
    ("table", "--thm", "OddBySize", "--m", "2", "--k", "3", "--h", "0..1", "--order", "6",
     "--variant", "both"),
])
def test_variant_both_outside_verify_is_usage_error(capsys, argv):
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    # colored-t11 reads no variant at all, so its parser has no --variant.
    assert out == "" and ("invalid choice: 'both'" in err
                          or "unrecognized arguments: --variant both" in err)


def test_verify_adjudicates_variant_both(capsys):
    code, out, _ = run_cli(capsys, "verify", "--thm", "OddBySize", "--m", "2", "--k", "3",
                           "--h", "0", "--order", "10", "--variant", "both")
    assert code == 0
    assert "derived=match" in out and "stated=" in out


def test_series_output_and_order_zero(capsys):
    code, out, _ = run_cli(capsys, "series", "--thm", "T14", "--m", "1", "--k", "1",
                           "--order", "10")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert values == [0, 1, 1, 2, 3, 5, 7, 11, 15, 22]

    code, out, _ = run_cli(capsys, "series", "--thm", "T11", "--m", "1", "--order", "0")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("--thm", "T14", "--m", "1", "--k", "1", "--order", "10"),
    ("--thm", "DistinctBySize", "--m", "3", "--k", "3", "--h", "2", "--variant", "stated"),
    ("--thm", "T11", "--m", "3", "--order", "0"),
])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_series_prints_the_one_column_table(capsys, argv, fmt):
    _, series, _ = run_cli(capsys, "series", *argv, "--format", fmt)
    _, table, _ = run_cli(capsys, "table", *argv, "--format", fmt)
    if fmt == "json":
        assert series == table
    else:
        # Only the header differs: series has none in text, n,coefficient in csv.
        header, _, rows = table.partition("\n")
        assert header.startswith("n")
        assert series == ("n,coefficient\n" if fmt == "csv" else "") + rows


def test_series_missing_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "--thm", "T14", "--m", "1", "--order", "5")
    assert code == 2
    assert "--k" in err


def test_series_precondition_violation_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "--thm", "MFixedByPart", "--m", "3",
                           "--k", "2", "--h", "0", "--order", "8")
    assert code == 2
    assert "column" in err


def test_series_rejects_a_parameter_the_theorem_does_not_take(capsys):
    code, out, err = run_cli(capsys, "series", "--thm", "T12", "--m", "1", "--h", "0",
                             "--k", "5", "--order", "5")
    assert code == 2
    assert out == "" and "does not take --k" in err


def test_count_fixed_by_hook_table_reproduction(capsys):
    code, out, _ = run_cli(capsys, "count", "fixed-by-hook", "--n", "10", "--m", "3",
                           "--h", "0", "--sum-k", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 10"
    assert set(lines[:-1]) == {
        "(6, 4)", "(5, 4, 1)", "(4, 4, 2)", "(4, 4, 1, 1)", "(4, 3, 3)",
        "(3, 3, 3, 1)", "(3, 2, 2, 2, 1)", "(3, 2, 2, 1, 1, 1)",
        "(3, 2, 1, 1, 1, 1, 1)", "(3, 1, 1, 1, 1, 1, 1, 1)",
    }


def test_count_colored_t11_table_reproduction(capsys):
    code, out, _ = run_cli(capsys, "count", "colored-t11", "--n", "10", "--m", "3", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 10"
    assert set(lines[:-1]) == {
        "(7, 1^3)", "(6, 1r, 1^3)", "(2r, 2^4)", "(2^4, 1r^2)", "(2^4, 1r, 1)",
        "(2^4, 1^2)", "(2r^3, 1r, 1^3)", "(2r^2, 1r^3, 1^3)", "(2r, 1r^5, 1^3)",
        "(1r^7, 1^3)",
    }


def test_count_hooks(capsys):
    code, out, _ = run_cli(capsys, "count", "hooks", "--n", "3", "--k", "1")
    assert code == 0
    assert out.strip() == "count: 4"


@pytest.mark.parametrize("m", ["-1", "0"])
def test_count_hooks_rejects_column_below_one(capsys, m):
    code, out, err = run_cli(capsys, "count", "hooks", "--n", "5", "--k", "2", "--m", m)
    assert code == 2
    assert out == ""
    assert "column index m must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("fixed-by-part", "--n", "-1", "--m", "1", "--h", "0", "--k", "1"),
    ("fixed-by-hook", "--n", "-1", "--m", "1", "--h", "0", "--sum-k"),
    ("hooks", "--n", "-3", "--k", "1"),
    ("colored-t11", "--n", "-2", "--m", "1"),
    ("restricted-t12", "--n", "-2", "--m", "1", "--h", "0"),
    ("colored-t13", "--n", "-2", "--m", "1", "--k", "2"),
])
def test_count_rejects_negative_n(capsys, argv):
    assert run_cli_exit("count", *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("fixed-by-hook", "--n", "5", "--m", "1", "--h", "0", "--k", "0"),
    ("fixed-by-hook", "--n", "5", "--m", "1", "--h", "0", "--k", "0", "--list"),
    ("hooks", "--n", "5", "--k", "0"),
])
def test_count_rejects_hook_size_below_one(capsys, argv):
    code, out, err = run_cli(capsys, "count", *argv)
    assert code == 2
    assert out == ""
    assert "hook size k must be >= 1" in err


def _fresh_python(*args):
    """Run this interpreter in a new process that imports this checkout."""
    src = str(Path(fixedhooks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_python_dash_m_runs_cli():
    proc = _fresh_python("-m", "fixedhooks", "count", "hooks", "--n", "4", "--k", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "count: 7"


def test_verify_set_up_loads_no_dataclasses_inspect_traceback_or_csv():
    # Set-up of a verify run: the package imported and argv parsed.
    proc = _fresh_python("-c", "import sys, fixedhooks.cli\n"
                         "fixedhooks.cli.make_parser().parse_args(['verify', '--all'])\n"
                         "print(*sorted({'dataclasses', 'inspect', 'traceback', 'csv'}"
                         " & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_series_table_and_the_grid_load_no_oracles():
    # The counting layer loads on the first count a case reads; building the
    # grid and printing series and tables read none.
    proc = _fresh_python("-c", "import contextlib, os, sys\n"
                         "import fixedhooks.verify as verify\n"
                         "verify.build_grid(verify.GridSpec())\n"
                         "loaded = ['fixedhooks.oracles' in sys.modules]\n"
                         "import fixedhooks.cli as cli\n"
                         "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
                         "    for argv in (['series', '--thm', 'T14', '--m', '1', '--k', '1'],\n"
                         "                 ['table', '--thm', 'T14', '--k', '1..4', '--m', '1'],\n"
                         "                 ['verify', '--thm', 'FixedByHook_m1', '--k', '2',\n"
                         "                  '--h', '0', '--order', '5']):\n"
                         "        assert cli.main(argv) == 0, argv\n"
                         "        loaded.append('fixedhooks.oracles' in sys.modules)\n"
                         "print(*loaded)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False True\n"


def test_count_unknown_oracle(capsys):
    assert run_cli_exit("count", "nonsense", "--n", "3") == 2
    _, err = capsys.readouterr()
    assert "invalid choice: 'nonsense'" in err


# One value for each count flag; a flag without a value is a switch.
_COUNT_VALUES = {"m": "2", "k": "3", "h": "0", "family": "odd", "sum_k": None, "list": None,
                 "variant": "derived"}


def _count_argv(oracle, *names):
    argv = ["count", oracle, "--n", "6"]
    for name in names:
        argv.append("--" + name.replace("_", "-"))
        if _COUNT_VALUES[name] is not None:
            argv.append(_COUNT_VALUES[name])
    return argv


def _needed(oracle):
    """One flag for each required entry of the oracle's row: --k of --k/--sum-k."""
    return [name if isinstance(name, str) else name[0] for name in _COUNT_FLAGS[oracle][0]]


def _reads(oracle):
    """Every flag of the oracle's row, both flags of a choice among them."""
    required, optional = _COUNT_FLAGS[oracle]
    return {one for name in required + optional
            for one in ((name,) if isinstance(name, str) else name)}


def test_count_flag_values_cover_the_table(capsys):
    assert set(_COUNT_VALUES) == set(_COUNT_ARGS)
    for oracle in _COUNT_FLAGS:
        assert _reads(oracle) <= set(_COUNT_ARGS)
        assert run_cli_exit(*_count_argv(oracle, *_needed(oracle))) == 0


@pytest.mark.parametrize("argv", [
    _count_argv(oracle, *_needed(oracle), name)
    for oracle in _COUNT_FLAGS
    for name in _COUNT_VALUES
    if name not in _reads(oracle)
])
def test_count_rejects_flags_the_oracle_does_not_read(capsys, argv):
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --" in err


@pytest.mark.parametrize("oracle, dropped", [
    (oracle, name) for oracle in _COUNT_FLAGS for name in _needed(oracle)
])
def test_count_requires_each_flag_its_row_requires(capsys, oracle, dropped):
    argv = _count_argv(oracle, *(name for name in _needed(oracle) if name != dropped))
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "required" in err and f"--{dropped}" in err
    assert run_cli_exit(*argv[:2], *argv[4:]) == 2  # and --n, which every oracle requires
    assert "required: --n" in capsys.readouterr().err


def test_count_rejects_k_with_sum_k(capsys):
    argv = ("count", "fixed-by-part", "--n", "6", "--m", "1", "--h", "0", "--k", "2", "--sum-k")
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --sum-k: not allowed with argument --k" in err


@pytest.mark.parametrize("argv", [
    ("series", "--thm", "T14", "--m", "1", "--k", "3..3"),
    ("count", "hooks", "--n", "5", "--k", "3..3"),
])
def test_series_and_count_take_plain_integers(capsys, argv):
    assert run_cli_exit(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid int value: '3..3'" in err


@pytest.mark.parametrize("command", [
    (), ("verify",), ("series",), ("count",), ("table",),
    *(("count", oracle) for oracle in _COUNT_FLAGS),
])
def test_help_exits_zero(capsys, command):
    assert run_cli_exit(*command, "--help") == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: fixedhooks " + " ".join(command)) and err == ""


# A verify run in which every config key changes the report.
_SETTINGS = {"thms": "OddBySize,DistinctBySize", "m": "1..2", "k": "3", "h": "0",
             "order": "8", "family": "odd", "variant": "stated", "format": "csv"}


def _flags(settings):
    return [arg for key, value in settings.items()
            for arg in (f"--{'thm' if key == 'thms' else key}", value)]


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_line_gives_the_bytes_of_its_flag(tmp_path, capsys, key):
    assert set(_SETTINGS) == set(CONFIG_KEYS)
    others = {k: v for k, v in _SETTINGS.items() if k != key}
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"{key} = {_SETTINGS[key]}\n")
    by_flag = run_cli(capsys, "verify", *_flags(_SETTINGS))
    assert by_flag[1]
    assert run_cli(capsys, "verify", "--config", str(cfg), *_flags(others)) == by_flag
    assert run_cli(capsys, "verify", *_flags(others)) != by_flag


@pytest.mark.parametrize("argv, config", [
    (("--thm", ""), None),
    (("--family", ""), None),
    ((), "thms =\n"),
    ((), "family =\n"),
    (("--config", ""), None),
])
def test_empty_theorem_family_or_config_is_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(config)
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, "verify", "--m", "1", "--k", "2", "--h", "0",
                             "--order", "5", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_thm_all_runs_every_theorem(tmp_path, capsys):
    grid = ("verify", "--m", "1", "--k", "2", "--h", "0", "--order", "6")
    every = run_cli(capsys, *grid)
    assert every[0] == 0 and every[1].count("PASS") > 1
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("thms = all\n")
    assert run_cli(capsys, *grid, "--thm", "all") == every
    assert run_cli(capsys, *grid, "--config", str(cfg)) == every
    assert run_cli(capsys, *grid, "--config", str(cfg), "--all") == every


def test_count_json_format(capsys):
    code, out, _ = run_cli(capsys, "count", "restricted-t12", "--n", "6", "--m", "2",
                           "--h", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--thm", "T14", "--k", "1..4", "--m", "1",
                           "--order", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k=1,k=2,k=3,k=4"
    assert len(lines) == 9
    assert lines[4].startswith("3,2,1,3,0")


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--thm", "OddDistinctTotal", "--k", "1..3",
                           "--order", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["theorem"] == "OddDistinctTotal" for row in rows)
    assert {row["k"] for row in rows} == {1, 2, 3}


def test_table_empty_range_gives_header_only(capsys):
    code, out, _ = run_cli(capsys, "table", "--thm", "T14", "--k", "3..2", "--m", "1",
                           "--order", "8", "--format", "csv")
    assert code == 0
    assert out.strip() == "n"


@pytest.mark.parametrize("argv, message", [
    (("--thm", "T14", "--m", "1", "--k", "3..2", "--variant", "stated"),
     "T14_HooksOfSizeK has no variants"),
    (("--thm", "T12", "--m", "2", "--h", "3..2", "--k", "1"),
     "T12_ClosedForm does not take --k"),
])
def test_table_checks_its_flags_on_an_empty_range(capsys, argv, message):
    # No series is built for an empty range, so the flags are checked once
    # for the whole table.
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_table_two_varying_parameters_rejected(capsys):
    code, _, err = run_cli(capsys, "table", "--thm", "T14", "--k", "1..2", "--m", "1..2",
                           "--order", "8")
    assert code == 2
    assert "at most one" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, "series", "--thm", "T11", "--m", "1", "--order", "6",
                           "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,coefficient"


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(Exception):
        read_config(str(bad))


def test_deterministic_output_across_runs(capsys):
    args = ("verify", "--thm", "MFixedByHook", "--m", "1..2", "--k", "1..3",
            "--h", "0..1", "--order", "10", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_count_restricted_t12_at_large_n(capsys):
    code, out, err = run_cli(capsys, "count", "restricted-t12", "--n", "2500", "--m", "3",
                             "--h", "0")
    assert code == 0 and "Traceback" not in err
    assert out.startswith("count: ") and int(out.split()[1]) > 0


def test_t14_h_aggregation_with_empty_fixedness_window(capsys):
    # k + m - 1 > N: no hook of size k reaches column m below the order
    code, out, err = run_cli(capsys, "verify", "--thm", "T14", "--m", "1", "--k", "40",
                             "--order", "8")
    assert code == 0 and "Traceback" not in err
    assert "h window empty" in out and "FAIL" not in out


def test_uncaught_exception_prints_traceback_and_exits_three(monkeypatch, capsys):
    import fixedhooks.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("builder exploded")

    monkeypatch.setattr(cli, "build_series", explode)
    code, out, err = run_cli(capsys, "series", "--thm", "T11", "--m", "1", "--order", "5")
    assert code == 3
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: builder exploded" in err


@pytest.mark.parametrize("thm", ["OddByHook", "DistinctByHook", "OddDistinctByHook"])
def test_series_rejects_hook_size_below_one(capsys, thm):
    code, out, err = run_cli(capsys, "series", "--thm", thm, "--m", "1", "--k", "0", "--h", "-2")
    assert code == 2
    assert out == ""
    assert "hook size k must be >= 1" in err


def test_count_empty_family_is_usage_error(capsys):
    # It used to count every partition and label the count "all".
    assert run_cli_exit("count", "hooks", "--n", "5", "--k", "1", "--family", "") == 2
    assert "invalid choice: ''" in capsys.readouterr().err
