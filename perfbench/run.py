#!/usr/bin/env python3
"""Build and run one workload of the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/perfbench.exe
with dune (build directory .bench_build, or $CARGO_TARGET_DIR when set),
generates the read workloads' inputs once into .bench_work/inputs when the
workload needs them, runs the measured process, holds its result to the metrics
BENCHMARK.json lists, and prints that result as its last line.
It exits non-zero, printing no result, when any step fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170  # generating inputs and measuring, after the build
NEEDS_INPUTS = {"relational-index", "relational-scan", "usecase-queries"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, capture=False):
    """Run cmd to completion; its stdout goes to our stderr unless captured."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out" % " ".join(cmd[:2]))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (" ".join(cmd[:2]), proc.returncode))
    return out


def check_result(line, spec, trace):
    """Parse the measured process's result and hold it to BENCHMARK.json.

    A traced run measures only its own workload's layers; the per-layer
    metrics of the other workloads are reported as 0 (not applicable).
    """
    try:
        result = json.loads(line)
    except ValueError:
        fail("the measured process printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    unlisted = sorted(name for name, unit in got.items() if listed.get(name) != unit)
    if unlisted:
        fail("metrics missing from BENCHMARK.json or with another unit: %s" % unlisted)
    if not trace and set(got) != set(listed):
        fail("end-to-end metrics not measured: %s" % sorted(set(listed) - set(got)))
    result["metrics"] = {
        name: result["metrics"].get(name, {"value": 0, "unit": unit}) for name, unit in listed.items()
    }
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a full checkout: %s is missing" % needed)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1:
        fail("--seconds must be positive")

    workdir = os.path.join(root, ".bench_work")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    # Keep dune's cache and every other file the build writes inside the checkout.
    env["XDG_CACHE_HOME"] = os.path.join(workdir, "cache")
    env["DUNE_CACHE"] = "disabled"
    run(["dune", "build", "--root", root, "--build-dir", build_dir, "--display", "quiet",
         "-j", "2", "./perfbench/perfbench.exe"], BUILD_TIMEOUT_S, env)
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--seed", str(args.seed), "--workdir", workdir]
    if args.workload in NEEDS_INPUTS:
        run([exe, "generate", "--workdir", workdir], deadline - time.monotonic(), env)
    out = run([exe, "measure", "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + common, deadline - time.monotonic(), env, capture=True)
    lines = out.strip().splitlines()
    result = check_result(lines[-1] if lines else "", spec, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
