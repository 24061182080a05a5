#!/usr/bin/env python3
"""Run one workload of the STENSO benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and the `stenso` CLI from source with dune (into
.bench_build/), runs the workload in a process group of its own, and
prints the workload's detail line followed by the result line: one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).

Every file a run writes stays inside the checkout: HOME, XDG_CACHE_HOME,
STENSO_CACHE_DIR and TMPDIR point into a per-run directory under
.bench_build/ that is removed when the run ends, and dune's shared cache
is disabled.  Exits non-zero, without a result line, when the checkout
cannot be built or the workload fails to produce a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORKLOADS = ("synth-cold", "serve-hit")
RUN_LIMIT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    return 1


def build(env):
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(f"{need} is missing; run from a full checkout of the repository")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "./perfbench/bench.exe", "./bin/stenso_cli.exe"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return 0 if done.returncode == 0 else fail("build failed")


def result_line(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few programs per workload (the smoke test's size)")
    args = p.parse_args()
    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    rundir = os.path.join(ROOT, BUILD, "perfbench-runs", f"{args.workload}-{os.getpid()}")
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = build(env)
    if status:
        return status
    os.makedirs(rundir)
    for sub in ("home", "cache", "tmp"):
        os.makedirs(os.path.join(rundir, sub))
    env.update(
        HOME=os.path.join(rundir, "home"),
        XDG_CACHE_HOME=os.path.join(rundir, "cache"),
        STENSO_CACHE_DIR=os.path.join(rundir, "cache", "stenso"),
        TMPDIR=os.path.join(rundir, "tmp"),
    )
    exe = os.path.join(ROOT, BUILD, "default")
    spawn = time.time()
    proc = subprocess.Popen(
        [os.path.join(exe, "perfbench", "bench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", os.path.join(exe, "bin", "stenso_cli.exe"),
         "--solved", os.path.join(HERE, "solved.json"),
         "--dir", rundir, "--spawn", repr(spawn)] + (["--tiny"] if args.tiny else []),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The workload's daemon shares its process group; nothing it
        # started may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
    if out is None:
        return fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        return fail(f"{args.workload} exited with code {proc.returncode}")
    if result_line(out) is None:
        return fail(f"{args.workload} printed no result line")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
