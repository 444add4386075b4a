#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on the named
workloads and prints, for each end-to-end metric, the median of the runs
and the distance between their first and third quartiles as a share of
that median, beside the metric's bound, and the same for the unscaled
wall time the benchmark prints on stderr. Run from the repository root:

    python3 perfbench/spread.py --seeds 10 regular irregular lensed
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, check=True, capture_output=True, text=True)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    # The unscaled wall time, which the benchmark reports on stderr.
    m = re.search(r"unscaled wall ([0-9.]+) s", p.stderr)
    if m:
        vals["(unscaled wall_s)"] = float(m.group(1))
    return vals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="+")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["(unscaled wall_s)"] = "-"
    for w in a.workloads:
        runs = [run(spec["command"], w, s, spec["run_seconds"])
                for s in range(a.first_seed, a.first_seed + a.seeds)]
        print(f"{w} ({a.seeds} seeds)")
        for name, bound in bounds.items():
            vals = [r[name] for r in runs if name in r]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            print(f"  {name:16s} median {med:<14.6g} iqr/median {share:.4f}  bound {bound}  "
                  + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
