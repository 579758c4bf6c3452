#!/usr/bin/env python3
"""Build the cobra benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cover-cgr --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; which layer
each per-layer metric belongs to, and which end-to-end metric it should
move on which workload, is in perfbench/layers.json.  The last line of
standard output is the JSON result of perfbench/cobra_bench.exe; build
output goes to standard error.  Every process the run starts runs in one
process group, which is killed and reaped before this script exits.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "cobra_bench.exe")
SERVER = os.path.join("_build", "default", "bin", "cobra_serve.exe")
# A run must end within 180 s; the first run in a checkout also builds.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    # Wait for every member (servers the benchmark spawned included) to go.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("no cobra sources here (dune-project, lib/, bin/): run from a checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", EXE, SERVER],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode or 1)

    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "request_ms")
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--bound", repr(bound),
        "--work-dir", os.path.join("perfbench", "_work"),
        "--server-exe", SERVER,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 124)
    finally:
        kill_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % proc.returncode, proc.returncode)

    # The result must name exactly the metrics BENCHMARK.json declares.
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)), 3)
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"], 3)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
