#!/usr/bin/env python3
"""Build and run the end-to-end SAMURAI pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cell_fig8 --seed 1 --seconds 10 --trace 0

The first run configures and builds `pipeline_bench` (and the library
targets it links) from source into `.bench_build` at the root of this
checkout; later runs only check that the build is up to date. A build
directory configured from another checkout's sources is configured afresh,
so two checkouts never time each other's binary. Build output goes to
stderr. The benchmark's stdout is passed through; its last line is the
JSON result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cell_fig8", "campaign_yield")
RUN_TIMEOUT_S = 175


def configured_source(cache):
    """The source directory a CMake cache was configured from, or None."""
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(jobs=4):
    """Configure (when needed) and build pipeline_bench; return the binary."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found next to perfbench/")
    out = os.path.join(ROOT, ".bench_build")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(out, "CMakeCache.txt")
        source = configured_source(cache)
        if source is None or os.path.realpath(source) != os.path.realpath(HERE):
            for entry in os.listdir(out):
                if entry != ".lock":
                    path = os.path.join(out, entry)
                    if os.path.isdir(path) and not os.path.islink(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "pipeline_bench",
                        "-j", str(jobs)], check=True, stdout=sys.stderr)
    return os.path.join(out, "pipeline_bench")


def parse_result(stdout):
    """The last stdout line as the result object, or None if malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(ROOT, ".bench_work")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0 or parse_result(run.stdout) is None:
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
