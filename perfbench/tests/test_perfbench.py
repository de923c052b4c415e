"""Fast tests of the benchmark itself: verdict gate, span arithmetic, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


def seed_report(workload="verify-all") -> str:
    """A report with the seed's verdicts for ``workload``."""
    exp = EXPECTED[workload]
    lines = [f"PASS    Case{i} N=30" for i in range(exp["pass"])]
    lines.append(f"total {exp['cases']} cases: {exp['pass']} passed, "
                 f"{exp['fail']} failed, {exp['skipped']} skipped")
    return "\n".join(lines + exp["variants"]) + "\n"


def check(stdout, code=0, stderr="", workload="verify-all"):
    return gate.check_report(EXPECTED[workload], code, stdout, stderr)


# ---------------------------------------------------------------------------
# verdict gate
# ---------------------------------------------------------------------------


def test_seed_verdicts_pass():
    assert check(seed_report()) == []
    assert check(seed_report("census-n36"), workload="census-n36") == []


def test_relabelled_report_still_passes():
    # The gate reads verdicts, not bytes: a changed N= label is not an error.
    assert check(seed_report().replace("N=30", "N=25")) == []


def test_one_fail_line_is_an_error():
    lines = seed_report().splitlines()
    lines[0] = lines[0].replace("PASS   ", "FAIL   ") + "  first mismatch at q^3: 1 != oracle 2"
    assert check("\n".join(lines) + "\n")


def test_missing_summary_is_an_error():
    text = "\n".join(l for l in seed_report().splitlines() if not l.startswith("total "))
    assert any("summary" in e for e in check(text))


def test_exit_1_is_an_error():
    assert check(seed_report(), code=1) == ["exit code 1, expected 0"]


def test_traceback_is_an_error():
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nIndexError: boom\n'
    assert check(seed_report(), stderr=stderr) == ["traceback on stderr"]


def test_changed_variant_resolution_is_an_error():
    text = seed_report().replace("stated: 104/212", "stated: 105/212")
    assert check(text) == ["variant-resolution lines differ from the seed's"]


def test_sweep_gate():
    exp = EXPECTED["series-sweep"]
    good = "".join(f"series N={n}: {c} built\n" for n, c in exp["built"].items())
    good += f"sha256 {exp['sha256']}\n"
    assert gate.check_sweep(exp, 0, good, "") == []
    assert gate.check_sweep(exp, 0, good.replace(exp["sha256"], "0" * 64), "")
    assert gate.check_sweep(exp, 0, good.replace("N=60: 2202", "N=60: 2201"), "")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def span(name, parent, busy, count=0, tag=None):
    return [name, 0.0, busy, parent, busy, count, tag]


SYNTHETIC = [
    span("cli.main", -1, 10.0),                      # 0
    span("verify.build_grid", 0, 0.5),               # 1
    span("verify.run_cases", 0, 7.0),                # 2
    span("verify.run_case", 2, 6.0),                 # 3
    span("oracles.hook_tally", 3, 4.0, count=99),    # 4
    span("partitions.enumerate", 4, 1.5, count=42),  # 5: busy only inside next()
    span("genfun.build_series", 3, 1.0, tag=30),     # 6
    span("qseries.mul", 6, 0.25, count=12),          # 7
    span("qseries.kernel", 6, 0.25),                 # 8
    span("verify.render", 0, 0.5),                   # 9
]


def test_self_times_of_a_synthetic_tree():
    m = tracer.layer_metrics(SYNTHETIC, {"hits": 3, "misses": 1})
    assert m["oracles.hook_tally.self_s"] == pytest.approx(2.5)
    assert m["genfun.self_s"] == pytest.approx(0.5)
    assert m["verify.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["genfun.build_series.busy_s.N30"] == pytest.approx(1.0)
    assert m["genfun.build_series.busy_s.N60"] == 0
    assert m["partitions.enumerate.yielded"] == 42
    assert m["oracles.census.cells"] == 99
    assert m["qseries.mul.coeff_pairs"] == 12
    assert m["qseries.kernel.cache_hit_ratio"] == pytest.approx(0.75)


def test_nested_same_name_span_is_not_counted_twice():
    spans = [span("qseries.kernel", -1, 2.0), span("qseries.kernel", 0, 0.5)]
    m = tracer.layer_metrics(spans, {"hits": 0, "misses": 0})
    assert m["qseries.kernel.busy_s"] == pytest.approx(2.0)
    assert m["qseries.kernel.calls"] == 2


# ---------------------------------------------------------------------------
# the tracer observes without changing anything
# ---------------------------------------------------------------------------


def test_tracer_restores_every_attribute_and_keeps_results():
    from fixedhooks import genfun, oracles, partitions, qseries, verify

    originals = {(m.__name__, a): getattr(m, a) for m in (partitions, oracles, verify, genfun)
                 for a in ("enumerate_parts", "build_series", "hook_tally")
                 if hasattr(m, a)}
    mul = qseries.LaurentSeries.__dict__["__mul__"]
    spec = verify.GridSpec(theorems=(genfun.TheoremId.MFixedByHook,), order=9,
                           m_values=(2,), k_values=(3,))
    plain = verify.run_cases(verify.build_grid(spec))

    t = tracer.Tracer()
    t.install()
    try:
        assert qseries.LaurentSeries.__dict__["__mul__"] is not mul
        traced = verify.run_cases(verify.build_grid(spec))
        listed = list(oracles.enumerate_parts(6))
    finally:
        restored = t.restore()
    assert restored
    assert qseries.LaurentSeries.__dict__["__mul__"] is mul
    for (modname, attr), orig in originals.items():
        assert getattr(sys.modules[modname], attr) is orig
    assert [(r.status, r.first_mismatch) for r in traced] == \
           [(r.status, r.first_mismatch) for r in plain]
    assert listed == list(partitions.enumerate_parts(6))
    names = {s[tracer.NAME] for s in t.rec.spans}
    assert {"verify.build_grid", "verify.run_cases", "verify.run_case",
            "genfun.build_series", "qseries.mul", "partitions.enumerate"} <= names


def test_traced_cli_prints_what_the_untraced_cli_prints(tmp_path):
    argv = ["cli", "verify", "--thm", "T14", "--m", "1", "--k", "1..2", "--order", "10"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = []
    for extra in ([], ["--trace", str(tmp_path / "spans.json")]):
        cmd = [sys.executable, str(BENCH / "launch.py"), "--mark", str(tmp_path / "m"),
               *extra, *argv]
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and b"passed" in outs[0]
    spans, extra, _ = tracer.load(str(tmp_path / "spans.json"))
    assert extra["restored"] is True
    assert any(s[tracer.NAME] == "cli.main" for s in spans)


def test_setup_probe_stops_before_any_case(tmp_path):
    cmd = [sys.executable, str(BENCH / "launch.py"), "--mark", str(tmp_path / "m"),
           "--setup-only", "cli", "verify", "--all"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == b""
    assert "setup" in json.loads((tmp_path / "m").read_text())


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with run.py
# ---------------------------------------------------------------------------


def test_benchmark_json_names_what_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(EXPECTED) == set(run.WORKLOADS)
