#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads hot_get cold_batch --seeds 1 2 3 4 5

Runs the command in BENCHMARK.json from the repository root, once per
workload and seed, and prints for every metric its median and the distance
between its first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)). An end-to-end metric whose spread is
not below a third of its bound is marked; setup_s is exempt.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed checks:\n{out.stderr}")
    return result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in a.workloads:
        runs = [run(spec["command"], workload, s, a.seconds, a.trace) for s in a.seeds]
        print(f"{workload} ({len(runs)} seeds)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(mid) if mid else 0.0
            bound = bounds.get(name) if a.trace == 0 else None
            mark = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                mark, steady = "  <-- spread not below bound/3", False
            print(f"  {name:26s} median {mid:14.4f}  spread {spread:7.2%}"
                  + (f"  bound {bound:.3f}" if bound is not None else "") + mark)
            if a.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
