#!/usr/bin/env python3
"""Build and run the fadesched benchmark.

One measured run (prints one JSON result as its last stdout line):

    python3 perfbench/run.py --workload warm_replay --seed 1 --seconds 20 --trace 0

Spread self-check (runs every workload K times, interleaved, and prints
each end-to-end metric's median, quartiles and spreads):

    python3 perfbench/run.py --spread 5 [--seconds 20]

Run from the repository root. The first call configures and builds
library, CLI and driver into .bench_build/ (about a minute on 4 cores);
later calls only re-check the build. Runtime files go to .bench_run/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def build():
    for needed in ("CMakeLists.txt", "src", "tools", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} not found; run from the repository root")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "perfbench_driver"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    for i in range(args.spread):
        for w in workloads:
            start = time.monotonic()
            result = run_once(w, args.first_seed + i, args.seconds, 0)
            wall = time.monotonic() - start
            if not result["correct"]:
                sys.exit(f"run.py: {w} seed {args.first_seed + i} reported incorrect output")
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"# run {i + 1}/{args.spread} {w} done in {wall:.1f} s", file=sys.stderr, flush=True)
    flagged = 0
    print(f"{'workload':14} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            flag = "  <-- spread above 0.1" if rng > 0.1 else ""
            flagged += 1 if flag else 0
            print(f"{w:14} {name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {rng:8.4f} {bounds.get(name, 0):6.3f}{flag}")
            print(f"#   {' '.join(f'{v:.6g}' for v in vals)}")
    print(f"# {flagged} metric(s) with (max-min)/median above 0.1")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="K")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.spread <= 0 and not args.workload:
        parser.error("--workload or --spread is required")
    if args.seconds <= 0:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    build()
    if args.spread > 0:
        spread(args)
        return
    sys.stdout.flush()
    os.execv(DRIVER, [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    main()
