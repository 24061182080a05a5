#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the tiny size (three programs
per workload, 1.5 s of load), untraced and traced, and checks that:

- the run succeeds with correct answers and no failed operation;
- every metric BENCHMARK.json names is emitted, with its unit, as a
  finite number (end-to-end metrics untraced, per-layer metrics traced);
- the traced run reports the unattributed share of its wall time;
- the serve workloads report how late the load generator ran.

Exits non-zero and names the problems when a check fails.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1.5", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        return None, None, [f"exit code {out.returncode}"]
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.strip()]
    return lines[-1], lines[:-1], []


def check(bench, workload, trace):
    result, details, problems = run(bench, workload, trace)
    if result is None:
        return problems
    if not result["correct"] or result["failed"]:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} missing")
        elif v.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {v.get('unit')}, not {m['unit']}")
        elif not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"metric {m['name']} is not a finite number: {v.get('value')}")
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"unexpected metrics {sorted(set(got) - {m['name'] for m in wanted})}")
    if trace and "trace.unattributed_share" not in got:
        problems.append("the traced run does not report its unattributed share")
    detail = details[-1] if details else {}
    if workload.startswith("serve") and "generator_late_us" not in detail:
        problems.append("no generator lateness reported")
    if "machine" not in detail:
        problems.append("no machine stamp")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check(bench, w["name"], trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:14s} trace={trace}  {status}", flush=True)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
