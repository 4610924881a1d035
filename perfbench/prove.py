#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/prove.py [--runs 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

Runs `perfbench/run.py` once per seed (seeds first-seed .. first-seed+runs-1)
on each workload (default: every workload in BENCHMARK.json) with
`--trace 0` and the file's `run_seconds`. For each end-to-end metric it
prints the ten values, their median, and the spread: the distance between
the first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of the median, next to the metric's bound. With `--out` it writes the
per-run values and spreads as JSON (the noise record, `perfbench/noise.json`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    # The run's last diagnostic line carries the uncalibrated times.
    diag = [l for l in out.stderr.splitlines() if l.startswith("perfbench: ")]
    result["diagnostic"] = diag[-1] if diag else ""
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    opts = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))
        results = [run_once(bench["command"], workload, s, bench["run_seconds"]) for s in seeds]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            metrics[m["name"]] = {
                "values": values,
                "median": med,
                "spread": spread,
                "bound": m["bound"],
            }
            flag = "" if spread <= m["bound"] / 3 else "  <-- over bound/3"
            print(f"{workload:16} {m['name']:15} median {med:14.6g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f}{flag}", flush=True)
        record["workloads"][workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "diagnostics": [r["diagnostic"] for r in results],
        }
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
