#!/usr/bin/env python3
"""Spread report: run one workload N times and summarise each metric.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload stream --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1]

Runs the command of BENCHMARK.json once per seed (first-seed, first-seed+1,
...) and prints, for every metric, the median, the first and third quartile
(Python's statistics.quantiles(values, n=4)), the quartile spread
(q3 - q1) / median and the full range (max - min) / median. It also prints
the share of failed operations of every run and whether every run was
correct. Only the standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: exit code {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]), elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]

    values = {}
    units = {}
    shares = []
    correct = True
    wall = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result, elapsed = run_once(bench["command"], opts.workload, seed, seconds,
                                   opts.trace)
        wall.append(elapsed)
        correct = correct and result["correct"]
        shares.append(f'{result["failed"]}/{result["attempted"]}')
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: {elapsed:.1f} s, failed {shares[-1]}, "
              f"correct {result['correct']}", file=sys.stderr)

    print(f"workload {opts.workload}, {opts.runs} runs of {seconds} s, "
          f"trace {opts.trace}, seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}")
    print(f"all correct: {correct}; failed/attempted: {' '.join(shares)}; "
          f"run wall {min(wall):.1f}-{max(wall):.1f} s")
    print(f"{'metric':32} {'unit':>10} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        print(f"{name:32} {units[name]:>10} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{iqr:8.3f} {rng:9.3f}")


if __name__ == "__main__":
    main()
