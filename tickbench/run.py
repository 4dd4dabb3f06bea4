#!/usr/bin/env python3
"""Tick-ledger benchmark entry point.

Builds the LIRA libraries and the tickbench binary from this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build at the checkout root), runs one
workload, and relays the binary's output; its last stdout line is the JSON
result.

    python3 tickbench/run.py --workload city-100k|metro-1m|serve-100k \
        --seed N --seconds S --trace 0|1

With --trace 1 the binary also writes the Chrome trace of its first traced
episode into the build directory. Exits non-zero, without a result line,
when the build fails; exits with the binary's code otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city-100k", "metro-1m", "serve-100k")
# tickbench starts no episode after 150 s; this only guards a hang.
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds tickbench; build logs go to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tickbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "tickbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"tickbench build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("tickbench timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
