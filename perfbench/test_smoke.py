#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at its tiny sizes.

Runs every workload with --tiny (2 cell seeds, a one-shard campaign),
untraced and traced, and asserts that:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    is correct and has no failed unit;
  * every metric BENCHMARK.json names for that mode is emitted, with its
    unit, as a finite number;
  * two untraced runs with the same seed print the same output digest.

    python3 perfbench/test_smoke.py [--binary PATH]

Without --binary it builds the benchmark first (see run.py). Exits 0 when
every check passes.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build helper)


def run_tiny(binary, workload, trace, work_dir, seed=7):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--tiny", "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True).stdout
    result = run.parse_result(out)
    digest = re.search(r"digest ([0-9a-f]+)", out)
    return result, digest.group(1) if digest else None


def check(binary, spec):
    failures = []
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} --trace {trace}"
                result, digest = run_tiny(binary, workload, trace, work_dir)
                if result is None:
                    failures.append(f"{label}: malformed result line")
                    continue
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: run not correct")
                if result["attempted"] < 1:
                    failures.append(f"{label}: nothing attempted")
                metrics = result["metrics"]
                for metric in spec[section]:
                    got = metrics.get(metric["name"])
                    if got is None:
                        failures.append(f"{label}: {metric['name']} missing")
                    elif got["unit"] != metric["unit"]:
                        failures.append(f"{label}: {metric['name']} unit "
                                        f"{got['unit']} != {metric['unit']}")
                    elif not math.isfinite(got["value"]):
                        failures.append(f"{label}: {metric['name']} not finite")
                extra = set(metrics) - {m["name"] for m in spec[section]}
                if extra:
                    failures.append(f"{label}: unlisted metrics {sorted(extra)}")
                if trace == 0:
                    _, again = run_tiny(binary, workload, 0, work_dir)
                    if digest is None or digest != again:
                        failures.append(f"{label}: same seed, different digest")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="pipeline_bench to test")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = args.binary or run.build()
    failures = check(binary, spec)
    for failure in failures:
        print("FAIL", failure)
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
