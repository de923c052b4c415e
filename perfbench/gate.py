"""Verdict gate: does one run of a workload reproduce the seed's verdicts?

The gate compares verdicts, not report bytes, so a change that only
relabels report lines (such as the order printed after ``N=``) still passes,
while any change in what was verified fails.  Each check returns the list of
reasons the run failed; an empty list means the run is correct.
"""

from __future__ import annotations

import re
from collections import Counter

SUMMARY = re.compile(r"total (\d+) cases: (\d+) passed, (\d+) failed, (\d+) skipped")
STATUS_WORDS = {"PASS": "pass", "FAIL": "fail", "SKIPPED": "skipped"}
VARIANT_PREFIX = "variant resolution for "
SWEEP_LINE = re.compile(r"series N=(\d+): (\d+) built")
SHA_LINE = re.compile(r"sha256 ([0-9a-f]{64})")


def _process_errors(expected: dict, code: int, stderr: str) -> list[str]:
    errors = []
    if code != expected["exit"]:
        errors.append(f"exit code {code}, expected {expected['exit']}")
    if "Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr")
    return errors


def check_report(expected: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Gate a ``fixedhooks verify`` text report.

    ``expected`` holds ``exit``, ``cases``, ``pass``, ``fail``, ``skipped``
    and the ``variants`` resolution lines of the seed's run.
    """
    errors = _process_errors(expected, code, stderr)
    lines = stdout.splitlines()
    summaries = [m for m in map(SUMMARY.fullmatch, lines) if m]
    if len(summaries) != 1:
        errors.append(f"{len(summaries)} summary lines, expected 1")
    else:
        got = dict(zip(("cases", "pass", "fail", "skipped"), map(int, summaries[0].groups())))
        for key, value in got.items():
            if value != expected[key]:
                errors.append(f"summary {key} {value}, expected {expected[key]}")
    words = Counter(line.split(" ", 1)[0] for line in lines)
    for word, key in STATUS_WORDS.items():
        if words[word] != expected[key]:
            errors.append(f"{words[word]} {word} lines, expected {expected[key]}")
    variants = [line for line in lines if line.startswith(VARIANT_PREFIX)]
    if variants != expected["variants"]:
        errors.append("variant-resolution lines differ from the seed's")
    return errors


def check_sweep(expected: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Gate a series sweep: series built per order and the coefficient sha256."""
    errors = _process_errors(expected, code, stderr)
    lines = stdout.splitlines()
    built = {int(m[1]): int(m[2]) for m in map(SWEEP_LINE.fullmatch, lines) if m}
    want = {int(order): n for order, n in expected["built"].items()}
    if built != want:
        errors.append(f"series built per order {built}, expected {want}")
    shas = [m[1] for m in map(SHA_LINE.fullmatch, lines) if m]
    if shas != [expected["sha256"]]:
        errors.append("coefficient sha256 differs from the seed's")
    return errors


CHECKS = {"cli": check_report, "sweep": check_sweep}
