#!/usr/bin/env python3
"""Self-check of the benchmark's correctness checks, in seconds.

    python3 perfbench/selfcheck.py

Runs every workload on small tables (--scale 0.02, 1-second window) and
requires each run to report correct = true with no failed operation. Then
reruns each workload three times with one expected value perturbed (--perturb
read: a SELECT answer; write: a DML affected-row count; parts: the partitions
a SELECT must scan) and requires each of those runs to report correct =
false, which shows the checks can fail. Exits 0 only when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lineitem_scan", "tpcds_adhoc", "dml_mix"]


def run(workload, perturb=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           "7", "--seconds", "1", "--trace", "0", "--scale", "0.02"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    ok = True
    for workload in WORKLOADS:
        result = run(workload)
        good = result is not None and result["correct"] and result["failed"] == 0
        print(f"{workload:14s} unperturbed: {'pass' if good else 'FAIL'}"
              f" ({result and {k: result[k] for k in ('correct', 'attempted', 'failed')}})")
        ok &= good
        for perturb in ("read", "write", "parts"):
            result = run(workload, perturb)
            caught = result is not None and not result["correct"]
            print(f"{workload:14s} perturb {perturb:5s}: "
                  f"{'caught' if caught else 'NOT CAUGHT'}")
            ok &= caught
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
