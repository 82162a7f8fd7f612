#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs the benchmark several times per workload, each run with another
--seed, and reports for every end-to-end metric its median and its
inter-quartile spread (Q3 - Q1 as a share of the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the metric's bound
in BENCHMARK.json. It also applies the work-count guard: every run of a
workload must report the same timed-phase work counts, whatever its seed.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Exits non-zero when a spread (setup_s excepted) exceeds its bound, a run
fails, or work counts differ between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


LOG_DIR = ""


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if LOG_DIR:
        with open(f"{LOG_DIR}/{workload}-{seed}.txt", "w") as f:
            f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    counts = [l for l in lines if l.startswith("workcount ")]
    return result, counts[-1] if counts else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log-dir", default="", help="keep each run's full output here")
    args = ap.parse_args()
    global LOG_DIR
    LOG_DIR = args.log_dir

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for w in names:
        values = {m: [] for m in bounds}
        counts = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wc = run_once(bench["command"], w, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: failed {res['failed']} of {res['attempted']}")
                ok = False
            counts.add(wc)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.6g}" for m in bounds), flush=True)
        if len(counts) != 1:
            print(f"{w}: WORK COUNTS DIFFER between runs (benchmark defect): {sorted(counts)}")
            ok = False
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            verdict = "ok"
            if spread > bounds[m]:
                verdict = "OVER BOUND"
                if m != "setup_s":
                    ok = False
            elif spread > bounds[m] / 3:
                verdict = "above bound/3"
            print(f"{w:22s} {m:18s} median {med:12.6g}  spread {100 * spread:6.2f}%"
                  f"  bound {100 * bounds[m]:5.1f}%  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
