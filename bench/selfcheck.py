"""The benchmark's own checks.

Run from the root of a varseq checkout::

    python3 bench/selfcheck.py

1. The same seed gives the same inputs (in two fresh processes), and
   another seed gives other inputs, on every workload.
2. A traced run performs the same ops as the untraced run.
3. A planted wrong oracle answer is counted as a failure: the run
   reports ``correct: false`` and exits non-zero.
4. Outside a varseq checkout the benchmark exits non-zero without
   printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("opaque-field", "poly-sweep", "cli-models", "trivial-nbh")


def py(script: str, *args: str, cwd: str = ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, script),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def digest(workload: str, seed: int) -> str:
    proc = py("worker.py", "--workload", workload, "--seed", str(seed),
              "--seconds", "1", "--inputs-digest")
    return proc.stdout.strip()


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print("%s %s %s" % ("PASS" if ok else "FAIL", name, detail))
        if not ok:
            failures.append(name)

    for w in WORKLOADS:
        a, b, c = digest(w, 7), digest(w, 7), digest(w, 8)
        check("same-seed-same-inputs[%s]" % w, a == b and bool(a),
              "%s %s" % (a, b))
        check("other-seed-other-inputs[%s]" % w, a != c, "%s %s" % (a, c))

    run = ("run.py", "--workload", "poly-sweep", "--seed", "3",
           "--seconds", "1")
    proc = py(*run, "--trace", "1")
    out = last_json(proc)
    with open(os.path.join(ROOT, ".bench_out",
                           "result-poly-sweep-s3-t1.json")) as fh:
        info = json.load(fh)["info"]
    check("traced-ops-equal-untraced", proc.returncode == 0
          and out["attempted"] == info["untraced_ops"],
          "%d vs %d" % (out["attempted"], info["untraced_ops"]))

    proc = py(*run, "--trace", "0", "--plant-wrong-oracle")
    out = last_json(proc)
    check("planted-wrong-oracle-counted", proc.returncode != 0
          and out["correct"] is False and out["failed"] >= 1,
          "exit %d, failed %d" % (proc.returncode, out["failed"]))

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = py(*run, "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check("refuses-outside-checkout", proc.returncode != 0
          and not proc.stdout.strip(), "exit %d" % proc.returncode)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
