#!/usr/bin/env python3
"""Two-clock benchmark of the SCRAMNet cluster simulator.

Builds the `perfbench` package from source, runs one workload in a fresh
process, and measures that process from outside (peak RSS, user/sys CPU,
context switches, via wait4's rusage). Prints the workload's report and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). Exits non-zero, without a JSON line, when
the build or the run cannot complete; exits 1 after the JSON line when a
correctness check failed.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_micro --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys
import threading

WORKLOADS = ["paper_micro", "rpc_mixed", "ring_flood", "ring_flood_par"]
# The seed used while the benchmark was tuned. Seed 7 was kept out of
# tuning: confirm a claimed gain on it too.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Build the benchmark binary; return its path, or None on failure."""
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Keep stdout for the report: cargo's output goes to stderr.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    out = child.stdout.read()
    # Reap the child ourselves: wait4 returns its own rusage, unmixed
    # with the build's.
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode < 0:
        print(f"perfbench: {args.workload} killed by signal {-child.returncode}", file=sys.stderr)
        return 3
    lines = out.splitlines()
    if not lines:
        print(f"perfbench: {args.workload} exited {child.returncode} with no output", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(out, file=sys.stderr)
        print(f"perfbench: {args.workload} exited {child.returncode} without a result", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line)
    print(
        "  whole process (rusage): peak RSS {:.1f} MB, user {:.3f} s, sys {:.3f} s, "
        "{} voluntary + {} involuntary context switches".format(
            usage.ru_maxrss / 1024, usage.ru_utime, usage.ru_stime,
            usage.ru_nvcsw, usage.ru_nivcsw,
        )
    )
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    print(json.dumps(result))
    return 0 if child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
