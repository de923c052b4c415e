"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1..10 [--workloads a,b] [--out FILE] [--compare FILE]

Runs ``run.py`` once per (seed, workload), interleaving the workloads within
each seed so that machine drift hits them alike.  For every end-to-end
metric it prints the median, the quartiles and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound in
``BENCHMARK.json``.  ``--compare`` reads an earlier ``--out`` file and
reports how far each median moved, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1..10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    ap.add_argument("--compare")
    opts = ap.parse_args()

    workloads = opts.workloads.split(",")
    values = {w: {} for w in workloads}
    failed = 0
    for seed in parse_seeds(opts.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            failed += result["failed"] + (not result["correct"]) + (proc.returncode != 0)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{n} {m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    before = {}
    if opts.compare:
        with open(opts.compare) as fh:
            before = json.load(fh)
    table = {}
    for w in workloads:
        table[w] = {}
        for name, vals in values[w].items():
            s = table[w][name] = summarize(vals)
            line = (f"{w:<18} {name:<12} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                    f"q3 {s['q3']:.4f}  spread {s['spread']:.3f}  bound {bounds[name]}")
            if name in before.get(w, {}):
                old = before[w][name]["median"]
                line += f"  moved {(s['median'] - old) / old:+.3f}"
            print(line)
    print(f"failed runs or incorrect results: {failed}")
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
