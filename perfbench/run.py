#!/usr/bin/env python3
"""Frame-path benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload live540|fleet360|stills1080 \
        --seed N --seconds S --trace 0|1

Builds perfbench against the repository's sources into .bench_build/,
runs one workload, and prints the run's result as the last line of
standard output: one JSON object with "correct", "attempted", "failed" and
"metrics". Untraced runs (--trace 0) add setup_s, the median of several
cold starts, each in a fresh process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Cold starts per untraced run; setup_s is their median.
SETUP_RUNS = 7


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment without SSLIC_* overrides, so the program's own
    dispatch (thread count, ISA, assign strategy, fusion, tracing, flight
    recorder) is what gets measured. Temporary files (the compiler's
    included) stay inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SSLIC_")}
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sslic sources next to {HERE} (src/CMakeLists.txt missing)")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j4"]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_main(args, env, setup_path):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_path:
        command += ["--setup-out", setup_path]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"run failed with exit code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def cold_starts(args, env, setup_path):
    """Returns the setup times of SETUP_RUNS fresh processes and how many of
    them produced labels that differ from the oracle."""
    times, mismatched = [], 0
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [BINARY, "--workload", args.workload, "--setup-child", setup_path],
            env=env, stdout=subprocess.PIPE, text=True)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 3:
            mismatched += 1
        elif done.returncode != 0 or not last[0].startswith("setup_s="):
            fail(f"cold start failed with exit code {done.returncode}")
        else:
            times.append(float(last[0].split("=", 1)[1]))
    return times, mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["live540", "fleet360", "stills1080"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    env = clean_env()
    build(env)
    setup_path = None
    if args.trace == 0:
        setup_path = os.path.join(BUILD_DIR, f"setup-{args.workload}-{os.getpid()}.bin")
    try:
        result = run_main(args, env, setup_path)
        if setup_path:
            times, mismatched = cold_starts(args, env, setup_path)
            result["attempted"] += SETUP_RUNS
            result["failed"] += mismatched
            if mismatched or not times:
                result["correct"] = False
            setup_s = statistics.median(times) if times else 0.0
            print(f"setup_s median {setup_s:.4f} s of {len(times)} cold starts: "
                  + " ".join(f"{t:.4f}" for t in times))
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            metrics.update(result["metrics"])
            result["metrics"] = metrics
    finally:
        if setup_path and os.path.exists(setup_path):
            os.remove(setup_path)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
