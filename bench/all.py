"""Run every workload once and print all end-to-end metrics.

Run from the root of a varseq checkout::

    python3 bench/all.py [--seed N] [--seconds S]

Prints each workload's metric table (with ``fail_ratio`` and the tail
percentile) from ``run.py --trace 0``; exits non-zero when any workload
run does, e.g. on an oracle mismatch.
"""

import argparse
import os
import subprocess
import sys

from run import WORKLOADS

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    worst = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        print("== %s (exit %d)" % (workload, proc.returncode))
        print("\n".join(proc.stdout.splitlines()[:-1]))
        worst = max(worst, proc.returncode)
    sys.exit(worst)
