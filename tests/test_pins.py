"""Tier-1 replays of tests/pins.py: every pinned report up to order 100 and
every pair of commands that must print the same bytes; the script replays
the pins above order 100 too."""

from dataclasses import replace
from functools import partial

import pytest

from census_anchors import run_checks
from pins import PAIRS, PINS, compare, replay


@pytest.mark.parametrize("pin", [pin for pin in PINS if pin.order <= 100],
                         ids=lambda pin: pin.name)
def test_pinned_report(pin):
    replay(pin)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.name)
def test_pair_prints_the_same_bytes(pair):
    compare(pair)


def test_a_wrong_hash_or_status_fails(capsys):
    # A pin cannot pass vacuously: the count pin with one hex digit of its
    # sha256 changed, or with another exit status expected, reports FAIL.
    pin = next(pin for pin in PINS if pin.name == "count")
    digit = "0" if pin.sha256[0] != "0" else "1"
    wrong = {"wrong hash": replace(pin, sha256=digit + pin.sha256[1:]),
             "wrong status": replace(pin, status=1)}
    assert run_checks({name: partial(replay, pin) for name, pin in wrong.items()}, "pins") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines[:2]] == [["FAIL", name] for name in wrong]
    assert lines[2].startswith("0 of 2 pins passed")
