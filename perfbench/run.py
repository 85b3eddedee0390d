#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 perfbench/run.py --workload gemm_large --seed 1 --seconds 40 --trace 0

Builds perfbench/bench.exe with dune (build output goes to stderr),
then runs it from the repository root with the same arguments, pinned
to one CPU.  The last line of standard output is the benchmark's JSON
result.  Exits non-zero, without a result, when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run measures for --seconds and then checks; never let it hang.
TIMEOUT_S = 175


def main():
    os.chdir(ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=TIMEOUT_S * 4,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build could not run: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    # One CPU for the whole run: the server's worker domain then wakes
    # on the CPU that is already running, not on an idle one that the
    # shared host may take milliseconds to schedule.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"running on every CPU, could not pin to one: {e}", file=sys.stderr)
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
