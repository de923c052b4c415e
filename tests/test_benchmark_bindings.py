"""The names that the benchmark under ``perfbench/`` binds in the package.

``perfbench/tracer.py`` wraps every binding of its ``LAYERS`` functions,
reads ``cache_info()`` of its ``KERNEL_CACHES`` and wraps the class's own
``LaurentSeries.__mul__``; it counts census cells by iterating
``hook_tally(...).hooks_total`` as a Mapping.  ``perfbench/launch.py``
builds the sweep from ``verify.build_grid``, ``GridSpec``, ``VARIANT_TAGS``
and the ``build`` and ``params`` of the ``CATALOG`` rows, reads each series
through ``valuation`` and ``coefficients``, and runs ``cli.main`` under a
``cli.make_parser`` that it calls with no argument.  A change under
``src/`` that drops or reshapes one of these fails here, in the tier-1
suite, before it fails the traced benchmark run.  The tracer's tables are
read from its file, which is loaded and left unchanged.
"""

import importlib
import importlib.util
from collections.abc import Mapping
from pathlib import Path

import pytest

import fixedhooks
from fixedhooks import cli, genfun, verify
from fixedhooks.oracles import hook_tally
from fixedhooks.partitions import Family
from fixedhooks.qseries import LaurentSeries

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("modname, attr, span", tracer.LAYERS)
def test_every_traced_layer_is_bound(modname, attr, span):
    assert callable(getattr(importlib.import_module(modname), attr)), span


@pytest.mark.parametrize("name", tracer.KERNEL_CACHES)
def test_every_traced_kernel_cache_reports_hits_and_misses(name):
    info = getattr(importlib.import_module("fixedhooks.qseries"), name).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_the_traced_product_is_the_series_class_own():
    mul = LaurentSeries.__dict__["__mul__"]
    one_plus_q = LaurentSeries(0, (1, 1), 4)
    assert mul(one_plus_q, one_plus_q) == LaurentSeries(0, (1, 2, 1), 4)


def test_the_census_total_is_a_mapping_of_counts():
    total = hook_tally(6, Family.ODD).hooks_total
    assert isinstance(total, Mapping)
    assert sum(total.values()) == sum(n * c for n, c in enumerate([1, 1, 1, 2, 2, 3, 4]))


def test_the_sweep_reads_the_grid_catalog_and_series():
    cases = verify.build_grid(verify.GridSpec())
    assert cases and isinstance(verify.VARIANT_TAGS, tuple)
    built = 0
    for case in cases:
        spec = genfun.CATALOG[case.theorem]
        if spec.build is None or any(getattr(case, p) is None for p in spec.params):
            continue
        assert isinstance(case.theorem.value, str)
        if built < 3:
            variant = "stated" if case.theorem in verify.VARIANT_TAGS else None
            series = fixedhooks.build_series(case.theorem, 30, m=case.m, k=case.k, h=case.h,
                                             variant=variant)
            v = series.valuation()
            assert len(series.coefficients(min(0, v) if v is not None else 0, 30)) >= 30
        built += 1
    assert built > 0


def test_the_cli_parser_is_made_with_no_argument():
    parser = cli.make_parser()
    assert parser.parse_args(["verify", "--all"]).all
    assert callable(cli.main)
