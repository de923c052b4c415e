"""Spans around the public functions of each fixedhooks module.

The tracer wraps functions from outside the package: nothing under ``src/``
changes.  Each wrapped call becomes a span ``[name, start, end, parent, busy,
count, tag]``:

* ``parent`` is the index of the span that was open when the call began
  (``-1`` for a root), so the spans of one process form a tree;
* ``busy`` is the time the span's own code ran.  For a plain call it is
  ``end - start``.  A generator is busy only inside ``next()``: between
  items its consumer runs, and that time belongs to the consumer's span;
* ``count`` is the work the call did, in the layer's own unit
  (partitions yielded, coefficient pairs multiplied, census cells);
* ``tag`` is the truncation order for series builders, else ``None``.

Spans stay in memory and are written out when the run ends.  Self time is
computed from the span tree by :func:`layer_metrics`; it is never estimated.
Only the traced process is observed: a ``--jobs`` pool worker would keep its
spans to itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

_WRAPPED = "__perfbench_wrapped__"

# Fields of a span.
NAME, START, END, PARENT, BUSY, COUNT, TAG = range(7)

# (defining module, attribute, span name).  Every binding of the function in
# a fixedhooks module is wrapped, so ``oracles.enumerate_parts`` and
# ``verify.build_series`` are traced at the name their callers look up.
LAYERS = (
    ("fixedhooks.partitions", "enumerate_parts", "partitions.enumerate"),
    ("fixedhooks.oracles", "hook_tally", "oracles.hook_tally"),
    ("fixedhooks.oracles", "count_restricted_thm12", "oracles.restricted_t12"),
    ("fixedhooks.oracles", "count_colored_thm11", "oracles.colored_t11"),
    ("fixedhooks.oracles", "count_colored_thm13", "oracles.colored_t13"),
    ("fixedhooks.qseries", "poch", "qseries.kernel"),
    ("fixedhooks.qseries", "inv_poch", "qseries.kernel"),
    ("fixedhooks.qseries", "gauss_binomial", "qseries.kernel"),
    ("fixedhooks.genfun", "build_series", "genfun.build_series"),
    ("fixedhooks.verify", "build_grid", "verify.build_grid"),
    ("fixedhooks.verify", "run_cases", "verify.run_cases"),
    ("fixedhooks.verify", "run_case", "verify.run_case"),
    ("fixedhooks.verify", "variant_notes", "verify.render"),
    ("fixedhooks.verify", "render_text", "verify.render"),
    ("fixedhooks.verify", "render_csv", "verify.render"),
    ("fixedhooks.verify", "render_jsonl", "verify.render"),
    ("fixedhooks.cli", "main", "cli.main"),
)

# The three lru_caches behind the q-Pochhammer and Gaussian kernels.
KERNEL_CACHES = ("_poch_coeffs", "_inv_poch_coeffs", "_gauss_coeffs")


class Recorder:
    """Span store and the stack of spans open in this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.census_seen: set[int] = set()

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, 0, tag])
        return idx

    def close(self, idx: int, busy: float | None = None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START] if busy is None else busy


def _call_wrapper(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name, _tag(name, args, kwargs))
        rec.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            if name == "oracles.hook_tally" and id(result) not in rec.census_seen:
                # The cells a census visits: one per (partition, cell) pair.
                rec.census_seen.add(id(result))
                rec.spans[idx][COUNT] = sum(result.hooks_total.values())
            return result
        finally:
            rec.stack.pop()
            rec.close(idx)

    setattr(wrapper, _WRAPPED, fn)
    return wrapper


def _tag(name: str, args, kwargs):
    if name == "genfun.build_series":
        return kwargs.get("order", args[1] if len(args) > 1 else None)
    return None


def _gen_wrapper(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        gen = fn(*args, **kwargs)
        busy = 0.0
        try:
            while True:
                rec.stack.append(idx)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - t0
                    rec.stack.pop()
                rec.spans[idx][COUNT] += 1
                yield item
        finally:
            gen.close()
            rec.close(idx, busy)

    setattr(wrapper, _WRAPPED, fn)
    return wrapper


def _mul_wrapper(rec: Recorder, fn, series_type):
    @functools.wraps(fn)
    def __mul__(self, other):
        idx = rec.open("qseries.mul")
        if isinstance(other, series_type):
            # Labelled as computed: every pair the schoolbook loop visits,
            # zero coefficients included.
            rec.spans[idx][COUNT] = len(self.coeffs) * len(other.coeffs)
        rec.stack.append(idx)
        try:
            return fn(self, other)
        finally:
            rec.stack.pop()
            rec.close(idx)

    setattr(__mul__, _WRAPPED, fn)
    return __mul__


def cache_counts() -> dict[str, int]:
    """Hits and misses summed over the kernel coefficient caches."""
    qseries = sys.modules["fixedhooks.qseries"]
    infos = [getattr(qseries, name).cache_info() for name in KERNEL_CACHES]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


class Tracer:
    """Install the wrappers; :meth:`restore` puts every original back."""

    def __init__(self):
        self.rec = Recorder()
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        for modname, _, _ in LAYERS:
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fixedhooks" or n.startswith("fixedhooks.")]
        for modname, attr, name in LAYERS:
            orig = getattr(sys.modules[modname], attr)
            make = _gen_wrapper if name == "partitions.enumerate" else _call_wrapper
            wrapper = make(self.rec, orig, name)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, binding, orig))
                        setattr(mod, binding, wrapper)
        series = sys.modules["fixedhooks.qseries"].LaurentSeries
        orig_mul = series.__dict__["__mul__"]
        self._saved.append((series, "__mul__", orig_mul))
        series.__mul__ = _mul_wrapper(self.rec, orig_mul, series)

    def restore(self) -> bool:
        """Put every original back and report whether all of them are back
        and no wrapper is left in any fixedhooks namespace."""
        for owner, binding, orig in reversed(self._saved):
            setattr(owner, binding, orig)
        back = all(getattr(owner, binding) is orig
                   if not isinstance(owner, type) else owner.__dict__[binding] is orig
                   for owner, binding, orig in self._saved)
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "fixedhooks" or n.startswith("fixedhooks.")]
        namespaces.append(vars(sys.modules["fixedhooks.qseries"].LaurentSeries))
        leftover = any(hasattr(v, _WRAPPED) for ns in namespaces for v in ns.values())
        return back and bool(self._saved) and not leftover

    def write(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({"spans": self.rec.spans, "caches": cache_counts(), **extra}, fh)


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def load(path: str) -> tuple[list[list], dict, dict[str, int]]:
    """The spans, the extra fields and the kernel cache counts of a trace."""
    with open(path) as fh:
        trace = json.load(fh)
    return trace.pop("spans"), trace, trace.pop("caches")


def self_times(spans: list[list]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = [s[BUSY] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[BUSY]
    return out


def layer_metrics(spans: list[list], caches: dict[str, int]) -> dict[str, float]:
    """Every per-layer figure, keyed by metric name.

    ``<layer>.busy_s`` sums the busy time of the layer's outermost spans (a
    span nested in another of the same name is already inside it);
    ``<layer>.calls`` counts spans; self times subtract child spans.
    """
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    by_order: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        count[name] += s[COUNT]
        selfs[name] += own[i]
        if not _inside_same(spans, i):
            busy[name] += s[BUSY]
            if name == "genfun.build_series" and s[TAG] is not None:
                by_order[s[TAG]] += s[BUSY]
    lookups = caches["hits"] + caches["misses"]
    m = {
        "partitions.enumerate.calls": calls["partitions.enumerate"],
        "partitions.enumerate.yielded": count["partitions.enumerate"],
        "partitions.enumerate.busy_s": busy["partitions.enumerate"],
        "oracles.hook_tally.calls": calls["oracles.hook_tally"],
        "oracles.hook_tally.busy_s": busy["oracles.hook_tally"],
        "oracles.hook_tally.self_s": selfs["oracles.hook_tally"],
        "oracles.census.cells": count["oracles.hook_tally"],
    }
    for layer in ("restricted_t12", "colored_t11", "colored_t13"):
        m[f"oracles.{layer}.calls"] = calls[f"oracles.{layer}"]
        m[f"oracles.{layer}.busy_s"] = busy[f"oracles.{layer}"]
    m.update({
        "genfun.build_series.calls": calls["genfun.build_series"],
        "genfun.build_series.busy_s": busy["genfun.build_series"],
        "genfun.self_s": selfs["genfun.build_series"],
    })
    for order in (30, 60, 120):
        m[f"genfun.build_series.busy_s.N{order}"] = by_order[order]
    m.update({
        "qseries.mul.calls": calls["qseries.mul"],
        "qseries.mul.busy_s": busy["qseries.mul"],
        "qseries.mul.coeff_pairs": count["qseries.mul"],
        "qseries.kernel.calls": calls["qseries.kernel"],
        "qseries.kernel.busy_s": busy["qseries.kernel"],
        "qseries.kernel.cache_lookups": lookups,
        "qseries.kernel.cache_hit_ratio": caches["hits"] / lookups if lookups else 0.0,
        "verify.build_grid.busy_s": busy["verify.build_grid"],
        "verify.run_case.calls": calls["verify.run_case"],
        "verify.run_case.busy_s": busy["verify.run_case"],
        "verify.self_s": selfs["verify.run_case"],
        "verify.render.busy_s": busy["verify.render"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": selfs["cli.main"],
    })
    return m


def _inside_same(spans: list[list], i: int) -> bool:
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
