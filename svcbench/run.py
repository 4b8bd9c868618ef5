#!/usr/bin/env python3
"""Service benchmark for lwm-serve: scan, protect and interrogate workloads.

    python3 svcbench/run.py --workload scan|protect|interrogate --seed N
                            --seconds S --trace 0|1 [--dump DIR]

Run from the repository root.  Builds the daemon and the load driver from
this checkout into .bench_build/svcbench (configured on first use), runs one
workload, checks every output, prints each metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 if
an output check fails or fewer than 100 operations completed.  --dump DIR
writes the workload's inputs in the lwm-scan layout instead of timing.
See svcbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
DRIVER = os.path.join(BUILD, "svcbench_driver")
WORKLOADS = ("scan", "protect", "interrogate")


def die(msg, code=1):
    print(f"svcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures on first use, then builds incrementally; output to a log."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "lwm_serve.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"{needed} not found: run from a full checkout of the repository", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                die(f"build failed, see {log_path}")


def table(title, values, extra=None):
    lines = [title]
    for name, (value, unit) in values.items():
        note = f"  ({extra[name]})" if extra and name in extra else ""
        lines.append(f"  {name:<28} {value:>14.6g} {unit}{note}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump", metavar="DIR")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive", 2)

    build()
    run_dir = os.path.join(".bench_build", "svcbench", "run")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--min-ops", str(0 if args.trace else metrics.MIN_OPS)]
    if args.dump:
        cmd += ["--dump", args.dump]
        sys.exit(subprocess.call(cmd, cwd=ROOT))
    # The driver and the daemon it spawns share a fresh process group, so a
    # run that overstays is stopped whole.  The timed phase may run to twice
    # --seconds on a slow machine; set-ups, checks and a traced run's replay
    # (half of --seconds) fit in the fixed allowance.
    limit = 2 * args.seconds + 110
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if stdout is None:
        die(f"driver did not finish within {limit:g} s")
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}")
    record = json.loads(stdout)

    # The raw record (ops, spans, stats frames) stays behind for inspection.
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    raw_path = os.path.join(BUILD, "runs",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw_path, "w") as f:
        f.write(stdout.decode())

    print(f"svcbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} record={raw_path}")
    n = len(record["ops"])
    if record["failed"]:
        print(f"  output checks failed: {record['failures']}")
    try:
        if args.trace:
            values = metrics.per_layer(record)
            names = [m[0] for m in metrics.PER_LAYER]
            print(table("per-layer metrics (per operation; traced run):", values))
            spans = metrics.span_dicts(record["spans"])
            selfs = metrics.self_times(spans)
            top = sorted(((ns, name) for name, ns in selfs.items()
                          if "." in name and not name.startswith(("replay", "call"))),
                         reverse=True)[:8]
            print("  largest replay self times: " +
                  ", ".join(f"{name} {ns / 1e6:.1f} ms" for ns, name in top))
        else:
            values = metrics.end_to_end(record)
            names = [m[0] for m in metrics.END_TO_END]
            extra = {"latency_p90_ms": f"n={n}, highest supported "
                                       f"p{metrics.tail_percentile(n)}",
                     "setup_s": f"median of {len(record['setup_s'])}",
                     "false_hit_rate": f"{record['false_hits']}/{record['false_trials']} "
                                       "decoy or wrong-key records"}
            print(table("end-to-end metrics (tracing off):", values, extra))
    except metrics.TooFewOps as e:
        die(str(e))
    bad = [name for name in values if not metrics.valid_name(name)]
    if bad:
        die(f"invalid metric names: {bad}")
    print(json.dumps(metrics.result_line(record, values, names)))
    sys.exit(0 if record["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
