"""The fixedhooks benchmark: one workload, run in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of the program starts a new process, as every ``fixedhooks``
invocation does, so each pays for its own imports, census and cache fill.
The benchmark repeats the workload for about S seconds, gates every run on
its verdicts (``gate.py``) and prints the median of each end-to-end metric.
Before each run it starts three set-up probes that stop once fixedhooks is
imported and argv parsed; ``setup_s`` is their median.

With ``--trace 1`` it spends about half of S on untraced runs, then runs the
workload once more with every module's public functions wrapped
(``tracer.py``) and prints the per-layer metrics instead.  The traced run
must print exactly what the untraced runs printed and restore every wrapped
attribute; its overhead is its wall time minus the untraced median.

The inputs are fixed grids, so ``--seed`` only labels the run.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Records of each run, with the machine and the commit, go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from gate import CHECKS
from tracer import layer_metrics, load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
RESULTS = os.path.join(HERE, "results")

CENSUS_THMS = "FixedByPart_m1,MFixedByPart,FixedByHook_m1,MFixedByHook"

# name -> (program, argv).  Why each exists is in perfbench/README.md.
# census-n36 is not in BENCHMARK.json: with 22 runs per workload in 3420 s,
# only two workloads get 60-second runs.  Run it by hand to isolate the census.
WORKLOADS = {
    "verify-all": ("cli", ["verify", "--all"]),
    "census-n36": ("cli", ["verify", "--thm", CENSUS_THMS, "--order", "36"]),
    "series-sweep": ("sweep", ["30", "60", "120"]),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics printed in the JSON line: counts, and the times that
# every traced workload exercises.  A layer that a workload never calls
# would read 0 s on every run; its time is printed in the table above the
# JSON line and kept in the run record instead.
PER_LAYER = {
    "partitions.enumerate.calls": "count",
    "partitions.enumerate.yielded": "count",
    "oracles.hook_tally.calls": "count",
    "oracles.census.cells": "count",
    "oracles.restricted_t12.calls": "count",
    "oracles.colored_t11.calls": "count",
    "oracles.colored_t13.calls": "count",
    "genfun.build_series.calls": "count",
    "genfun.build_series.busy_s": "s",
    "genfun.self_s": "s",
    "qseries.mul.calls": "count",
    "qseries.mul.coeff_pairs": "count",
    "qseries.mul.busy_s": "s",
    "qseries.kernel.calls": "count",
    "qseries.kernel.busy_s": "s",
    "qseries.kernel.cache_lookups": "count",
    "qseries.kernel.cache_hit_ratio": "ratio",
    "verify.build_grid.busy_s": "s",
    "verify.run_case.calls": "count",
    "trace.overhead_s": "s",
}

PROBES_PER_RUN = 3
MIN_RUNS = 3


def spawn(workdir: str, program: str, argv: list[str], *, setup_only=False, trace=None) -> dict:
    """Run the launcher once; time it from spawn to exit with its rusage."""
    mark = os.path.join(workdir, "mark.json")
    out, err = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    if os.path.exists(mark):
        os.remove(mark)
    cmd = [sys.executable, LAUNCH, "--mark", mark]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace", trace] if trace else []
    cmd += [program, *argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out, "rb") as fh:
        stdout = fh.read()
    with open(err, "rb") as fh:
        stderr = fh.read()
    setup = None
    if os.path.exists(mark):
        with open(mark) as fh:
            setup = json.load(fh)["setup"] - started
    return {
        "wall_s": ended - started,
        "setup_s": setup,
        # wait4 folds in every descendant the process waited for: pool workers.
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def gate(workload: str, sample: dict, expected: dict) -> list[str]:
    program = WORKLOADS[workload][0]
    return CHECKS[program](expected[workload], sample["exit"],
                           sample["stdout"].decode(errors="replace"),
                           sample["stderr"].decode(errors="replace"))


def run_untraced(workload: str, seconds: float, workdir: str, expected: dict):
    program, argv = WORKLOADS[workload]
    deadline = time.monotonic() + seconds
    runs, probes = [], []
    while True:
        for _ in range(PROBES_PER_RUN):
            probe = spawn(workdir, program, argv, setup_only=True)
            if probe["exit"] != 0 or probe["setup_s"] is None:
                raise SystemExit(f"perfbench: set-up probe failed:\n{probe['stderr'].decode()}")
            probes.append(probe["setup_s"])
        sample = spawn(workdir, program, argv)
        sample["errors"] = gate(workload, sample, expected)
        runs.append(sample)
        # Stop before a run as slow as the slowest so far would overrun.
        slowest = max(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS and time.monotonic() + slowest > deadline:
            return runs, probes


def run_traced(workload: str, workdir: str, expected: dict, reference: bytes):
    program, argv = WORKLOADS[workload]
    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir)
    spans_path = os.path.join(trace_dir, "spans.json")
    sample = spawn(workdir, program, argv, trace=spans_path)
    errors = gate(workload, sample, expected)
    if sample["stdout"] != reference:
        errors.append("traced stdout differs from the untraced run's")
    if not os.path.exists(spans_path):
        errors.append("traced run wrote no spans")
        return sample, errors, {}, None
    spans, extra, caches = load(spans_path)
    if not extra["restored"]:
        errors.append("traced run left a wrapped attribute in place")
    return sample, errors, layer_metrics(spans, caches), trace_dir


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def source_version() -> dict:
    """The git commit when the checkout has one, and a digest of src/ always."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fixedhooks")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description="fixedhooks benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not os.path.exists(os.path.join(SRC, "fixedhooks", "__init__.py")):
        print(f"perfbench: no fixedhooks sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    label = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    workdir = os.path.join(RESULTS, label)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    program, argv = WORKLOADS[opts.workload]
    # Unmeasured warm-up: compiles bytecode and fills the file cache.
    warm = spawn(workdir, program, argv, setup_only=True)
    if warm["exit"] != 0:
        print(f"perfbench: set-up failed:\n{warm['stderr'].decode()}", file=sys.stderr)
        return 2

    budget = opts.seconds / 2 if opts.trace else opts.seconds
    runs, probes = run_untraced(opts.workload, budget, workdir, expected)
    attempted = len(runs)
    failed = sum(1 for r in runs if r["errors"])
    record = {
        "workload": opts.workload,
        "command": [sys.executable, LAUNCH, "--mark", "FILE", program, *argv],
        "argv": argv,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "machine": machine(),
        "source": source_version(),
        "setup_probes_s": probes,
        "runs": [
            {k: v for k, v in r.items() if k not in ("stdout", "stderr")}
            | {"stdout_sha256": hashlib.sha256(r["stdout"]).hexdigest()}
            for r in runs
        ],
    }
    medians = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(probes),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    record["end_to_end"] = medians

    print(f"workload {opts.workload}: {attempted} runs of {' '.join(argv)} "
          f"({program}), {len(probes)} set-up probes, seed {opts.seed}")
    for name, unit in END_TO_END.items():
        values = probes if name == "setup_s" else [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<14} {medians[name]:10.4f} {unit:<3} median  (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  {'error_rate':<14} {failed / attempted:10.4f} ratio  ({failed} of {attempted} runs failed)")
    for i, r in enumerate(runs):
        for e in r["errors"]:
            print(f"  run {i}: {e}")

    metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END.items()}
    if opts.trace:
        sample, errors, layers, trace_dir = run_traced(
            opts.workload, workdir, expected, runs[0]["stdout"])
        attempted += 1
        failed += bool(errors)
        layers["trace.overhead_s"] = sample["wall_s"] - medians["wall_s"]
        record["traced"] = {
            "wall_s": sample["wall_s"], "errors": errors, "spans": trace_dir,
            "stdout_sha256": hashlib.sha256(sample["stdout"]).hexdigest(), "layers": layers,
        }
        print(f"traced run: wall {sample['wall_s']:.4f} s, overhead "
              f"{layers['trace.overhead_s']:+.4f} s over the untraced median")
        for e in errors:
            print(f"  traced run: {e}")
        for name, value in layers.items():
            print(f"  {name:<40} {value if isinstance(value, int) else f'{value:.6f}'}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in layers}

    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for name in ("stdout", "stderr", "mark.json"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.remove(path)
    print("record: " + json.dumps({k: record[k] for k in
                                   ("command", "seed", "machine", "source")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
