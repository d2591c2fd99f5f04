#!/usr/bin/env python3
"""Records the trial ACC values that run.py checks.

    python3 perfbench/record_acc.py

Runs each workload once per recorded seed (run.RECORDED_SEEDS) and kernel
ISA (RGAE_KERNEL) for one second and writes the ACC of every trial of a
training unit to perfbench/expected_acc.json. An ISA the host cannot run is
skipped (the library clamps RGAE_KERNEL to what the host supports).
Re-record only with a stated numerical reason: these values are the
benchmark's numerics guard.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ISAS = ("scalar", "avx2", "avx512")


def main():
    run.build()
    table = {}
    for workload in run.WORKLOADS:
        for isa in ISAS:
            for seed in run.RECORDED_SEEDS:
                env = dict(os.environ, RGAE_KERNEL=isa)
                ns = argparse.Namespace(workload=workload, seed=seed,
                                        seconds=1, trace=0)
                code, _, result = run.run_binary(ns, env=env)
                if result is None or code != 0:
                    run.fail("%s seed %d isa %s failed (exit %d)" %
                             (workload, seed, isa, code))
                if result["isa"] != isa:
                    print("skipping isa %s: host runs %s" %
                          (isa, result["isa"]))
                    break
                table.setdefault(workload, {}).setdefault(isa, {})[
                    str(seed)] = result["acc_values"]
                print(workload, isa, seed, result["acc_values"][:4], "...")
    with open(run.EXPECTED_ACC, "w") as f:
        json.dump({"acc": table}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
