#!/usr/bin/env python3
"""Attribution self-test of the benchmark's per-layer breakdown.

    python3 perfbench/selftest.py [--seconds S]

A delay injected through one of the benchmark's decorators (the WireSink
timing decorator, or the counting BlockDevice decorator) must show in that
layer's rows and in the end-to-end metrics the layer table predicts, and in
no other row. Each case runs perfbench/run.py on one seed, untraced and
traced, as baseline / injected / baseline, and compares the injected run
with the baselines. Exits non-zero if any expectation fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7

CASES = [
    {
        # 5 us per send keeps the station under its paced load.
        "workload": "wire_small",
        "inject": ["--inject-send-delay-us", "5"],
        # Rows that must rise, by at least this much (in their unit).
        "rise": {"net.send_us_per_datagram": 4.0,
                 "net.serve_call_us_per_datagram": 3.0},
        # End-to-end metrics that must move, by at least this share.
        "moves": {"serve_blocks_per_s": -0.15, "serve_cpu_us_per_block": 0.15},
    },
    {
        # 5 us per device read, 8 reads per 32 KiB block; the station stays
        # under its paced load (a saturated station would also change how
        # the listener wakes up, a real but second-order effect).
        "workload": "wire_large",
        "inject": ["--inject-read-delay-us", "5"],
        "rise": {"store.device_read_us": 4.0,
                 "store.read_us_per_block": 30.0,
                 "net.serve_call_us_per_datagram": 25.0},
        "moves": {"serve_blocks_per_s": -0.15, "serve_cpu_us_per_block": 0.15},
    },
]

# A row with no cause to move may still differ from the baseline by this
# share, by twice the difference between the two baseline runs (the host's
# own noise), or by an absolute floor in its unit, whichever is largest.
REL_TOLERANCE = 0.35
ABS_TOLERANCE = {"us": 1.0, "ms": 5.0, "%": 100.0}
# A residual is a small difference of large sums: judge it against the
# whole call it is the remainder of.
RESIDUAL_OF = {
    "net.serve_residual_us_per_datagram": "net.serve_call_us_per_datagram",
    "net.listen_residual_us_per_datagram": "net.listen_call_us_per_datagram",
}
RESIDUAL_SHARE = 0.1
# Counts fixed by the seed; they must match exactly.
EXACT_UNITS = {"count", "slots", "ratio"}
# Rows that measure the measurement, not a layer.
NOT_LAYERS = {"trace.overhead_pct", "trace.overhead_spread_pct",
              "trace.overhead_resolved", "net.pacing_lag_ms_p99"}


def run(workload, trace, seconds, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(out.stdout.splitlines()[-1])
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


def bracket(workload, trace, seconds, inject):
    """Baseline, injected, baseline: returns (mean baseline, baseline noise,
    injected) per metric."""
    first = run(workload, trace, seconds, [])
    hit = run(workload, trace, seconds, inject)
    second = run(workload, trace, seconds, [])
    return {name: ((first[name][0] + second[name][0]) / 2,
                   abs(first[name][0] - second[name][0]), hit[name][0], unit)
            for name, (_, unit) in first.items()}


def unexplained(name, rows, base, noise, unit):
    allowed = max(REL_TOLERANCE * abs(base), 2 * noise,
                  ABS_TOLERANCE.get(unit, 0.0))
    if name in RESIDUAL_OF:
        allowed = max(allowed, RESIDUAL_SHARE * rows[RESIDUAL_OF[name]][0])
    return allowed


def check_case(case, seconds):
    errors = []
    w = case["workload"]
    e2e = bracket(w, 0, seconds, case["inject"])
    for name, (b, noise, h, unit) in e2e.items():
        change = (h - b) / b
        if name in case["moves"]:
            share = case["moves"][name]
            if (share < 0 and change > share) or (share > 0 and change < share):
                errors.append("%s: %s moved %+.1f%%, expected %+.0f%% or more"
                              % (w, name, 100 * change, 100 * share))
        elif name != "setup_s" and abs(h - b) > unexplained(name, e2e, b,
                                                           noise, unit):
            errors.append("%s: %s moved %+.1f%% with no cause"
                          % (w, name, 100 * change))

    rows = bracket(w, 1, seconds, case["inject"])
    for name, (b, noise, h, unit) in rows.items():
        if name in case["rise"]:
            if h - b < case["rise"][name]:
                errors.append("%s: %s rose %.3f %s, expected %.3f or more"
                              % (w, name, h - b, unit, case["rise"][name]))
        elif name in NOT_LAYERS:
            continue
        elif unit in EXACT_UNITS:
            if h != b or noise != 0:
                errors.append("%s: %s changed %s -> %s" % (w, name, b, h))
        elif abs(h - b) > unexplained(name, rows, b, noise, unit):
            errors.append("%s: row %s moved %.3f -> %.3f %s with no cause"
                          % (w, name, b, h, unit))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    errors = []
    for case in CASES:
        found = check_case(case, args.seconds)
        print("%s with %s: %s" % (case["workload"], " ".join(case["inject"]),
                                  "ok" if not found else "FAILED"))
        errors += found
    for e in errors:
        print("  " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
