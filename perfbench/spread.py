#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1 as a share
of the median, from statistics.quantiles(values, n=4)) next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]...

Run from the repository root.  Raw results are appended, one JSON object a
line, to .perfbench-work/spread-runs.ndjson.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".perfbench-work", exist_ok=True)
    log = open(os.path.join(".perfbench-work", "spread-runs.ndjson"), "a")

    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            run = subprocess.run(command, capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr[-2000:])
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result,
                                  "unadjusted": detail.get("unadjusted")}) + "\n")
            log.flush()
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:16} {name:14} median {q2:12.4f}  spread {spread:7.4f}"
                  f"  bound {bound:5.2f}  spread/bound {spread / bound:5.2f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
