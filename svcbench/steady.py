#!/usr/bin/env python3
"""Steadiness check: two sets of K untraced runs of one build per workload.

    python3 svcbench/steady.py [--runs K] [--seconds S]

Run from the repository root.  Each set runs every workload K times with
seeds 1..K; run i visits the workloads in an order rotated by i, so slow
drift of the machine does not land on one workload.  For each set and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median; then the gap between the two sets' medians,
as a share of the first.  It flags a spread or a gap above the metric's
bound in BENCHMARK.json.  These figures are the evidence behind the
recorded bounds.  --seconds defaults to BENCHMARK.json's run_seconds.
Exits 1 if any run fails or anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_set(number, runs, seconds):
    """One set: {workload: {metric: [value per run]}} and the failure count."""
    values = {w: {} for w in WORKLOADS}
    failures = 0
    for i in range(runs):
        shift = i % len(WORKLOADS)
        for w in WORKLOADS[shift:] + WORKLOADS[:shift]:
            seed = i + 1
            result = run_once(w, seed, seconds)
            if result is None or not result["correct"]:
                failures += 1
                print(f"set {number} {w} seed {seed}: FAILED", flush=True)
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"set {number} {w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return values, failures


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    sets, failures = [], 0
    for number in range(1, SETS + 1):
        values, failed = run_set(number, args.runs, args.seconds)
        sets.append(values)
        failures += failed

    flagged = 0
    for w in WORKLOADS:
        print(f"\n{w}:")
        print(f"  {'metric':<16} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7}  bound")
        for name, bound in bounds.items():
            medians = []
            for number, values in enumerate(sets, 1):
                vals = values[w].get(name, [])
                if len(vals) < 2:
                    continue
                med, q1, q3, s = spread(vals)
                medians.append(med)
                flag = s > bound
                flagged += flag
                print(f"  {name:<16} {number:>3} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{s:>7.3f}  {bound}{'  <-- over bound' if flag else ''}")
            if len(medians) == SETS:
                gap = abs(medians[1] - medians[0]) / medians[0] if medians[0] else float("inf")
                flag = gap > bound
                flagged += flag
                print(f"  {name:<16} gap between the set medians {gap:.3f}  {bound}"
                      f"{'  <-- over bound' if flag else ''}")
    sys.exit(1 if failures or flagged else 0)


if __name__ == "__main__":
    main()
