#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) it runs
perfbench/run.py once per seed and prints, for each metric, the median,
the quartiles (statistics.quantiles, n=4), the spread (interquartile
distance over the median) and the metric's bound from BENCHMARK.json.
The last line of output is a JSON summary with every value.  A failed
run stops the script with a non-zero exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for w in names:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.time()
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            walls.append(time.time() - t0)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}",
                      file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"== {w}: {args.runs} runs, {statistics.median(walls):.1f} s median wall")
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
            print(f"  {name:28s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.4f}  bound {b}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": b,
                          "values": xs}
        summary[w] = {"wall_s": walls, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
