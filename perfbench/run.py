#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
bdisk library and the perfbench program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The run then executes perfbench, which generates the
workload from the seed, measures for S seconds, checks every output, and
prints one JSON object as its last line: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 the per-layer metrics after a per-layer
table. This script checks that the object carries exactly the metrics and
units BENCHMARK.json names, prints it as its own last line, and exits with
perfbench's status (non-zero when any output check failed).

Flags after the four above are passed to perfbench unchanged (selftest.py
uses them to inject delays).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# perfbench stops itself well before this; the guard only bounds a hang.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "serve_blocks_per_s")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    workdir = os.path.join(target, "perfbench-run")
    os.makedirs(workdir, exist_ok=True)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--overhead-bound", repr(bound)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("perfbench printed nothing (exit status %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench's last line is not JSON: " + lines[-1])
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
