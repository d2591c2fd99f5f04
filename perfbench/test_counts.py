#!/usr/bin/env python3
"""The benchmark's own test: traced count metrics repeat exactly.

    python3 perfbench/test_counts.py

Runs two traced 3-second runs of every workload on the default seed and
fails when any count metric (unit "count", and the per-epoch allocation
volume) differs between them, so later changes may claim on those counts.
Exits 0 on success, 1 on a mismatch.
"""

import json
import subprocess
import sys

from run import DEFAULT_SEED, WORKLOADS

EXACT = {"tensor.matrix_mb_per_epoch"}
SECONDS = 3


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS),
         "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count" or name in EXACT}


def main():
    ok = True
    for workload in WORKLOADS:
        first = traced_counts(workload)
        second = traced_counts(workload)
        bad = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not bad and first.keys() == second.keys()
        print("%s %s: %d count metrics%s" % (
            "FAIL" if bad else "PASS", workload, len(first),
            "".join("\n  %s: %r vs %r" % (k, first[k], second.get(k))
                    for k in bad)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
