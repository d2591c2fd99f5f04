#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the rgae
library and the benchmark binary into .bench_build/perfbench (CMake,
Release); later runs rebuild only what changed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The lines before it print every metric by name and unit, and
the raw timings and host factors. Exits non-zero when a build fails or an
output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED_ACC = os.path.join(HERE, "expected_acc.json")
BUILD_JOBS = "3"
WORKLOADS = ("train_scale", "table_suite", "serve_mutate")
DEFAULT_SEED = 1
# Held out for confirming a claim made on the default seed.
HELD_OUT_SEED = 7919
# Seeds whose trial ACCs expected_acc.json records.
RECORDED_SEEDS = tuple(range(11)) + (HELD_OUT_SEED,)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rgae sources beside perfbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def run_binary(args, env=None):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%s.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def load_expected():
    with open(EXPECTED_ACC) as f:
        return json.load(f)


def check_recorded_acc(result, problems):
    """Compares trial ACCs with the values recorded for (seed, ISA).

    Returns the number of trials whose ACC differs. Seeds without a record
    are checked only for unit-to-unit repetition (inside the binary).
    """
    expected = load_expected().get("acc", {})
    recorded = expected.get(result["workload"], {}).get(
        result["isa"], {}).get(result["seed"])
    if recorded is None:
        print("ACC not recorded for workload %s seed %s isa %s: checked "
              "only for repetition across units" %
              (result["workload"], result["seed"], result["isa"]))
        return 0
    got = result["acc_values"]
    if len(got) != len(recorded):
        problems.append("ACC count %d differs from the recorded %d" %
                        (len(got), len(recorded)))
        return max(len(got), len(recorded))
    bad = [i for i, (a, b) in enumerate(zip(got, recorded)) if a != b]
    for i in bad:
        problems.append("trial %d ACC %r differs from the recorded %r" %
                        (i, got[i], recorded[i]))
    return len(bad)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    code, lines, result = run_binary(args)
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail("workload %s produced no result (exit code %d)" %
             (args.workload, code))

    problems = list(result["problems"])
    failed = result["failed"] + check_recorded_acc(result, problems)
    attempted = result["attempted"]
    metrics = result["metrics"]
    if "ok_frac" in metrics:
        metrics["ok_frac"]["value"] = (attempted - failed) / attempted
    for p in problems[len(result["problems"]):]:
        print("CHECK FAILED: " + p)
    correct = not problems and failed == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
