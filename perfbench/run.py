#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload secure-churn --seed 1 \
        --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench), relative to the current directory; build output goes to
standard error. The program's own standard output is passed through, so the
last line printed is the run's JSON result. Exits non-zero, without a
result, when the engine sources are missing, the build fails, or the run
does not finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(bdir):
    """Configures once, then builds incrementally. Returns the binary."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(bdir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work = os.path.join(bdir, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    # The engine reads PROVNET_THREADS / PROVNET_FAULT_PLAN; a run must not
    # inherit them from the caller's shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROVNET_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: program exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: program printed no result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
