"""varseq benchmark: one workload, one seed, end-to-end or traced.

Run from the root of a varseq checkout::

    python3 bench/run.py --workload opaque-field --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures set-up time in fresh processes, runs the workload
once in a fresh worker process with tracing off, and prints the
end-to-end metrics.  ``--trace 1`` runs the same ops twice in fresh
workers, untraced and then traced, checks that both performed the same
ops, and prints the per-layer metrics and the tracing overhead.  Every
output is checked by an oracle outside the timed region.  The last line
of stdout is one JSON object; the exit code is 0 only when every op
passed its oracle (known defects aside, see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("opaque-field", "poly-sweep", "cli-models", "trivial-nbh")
REQUIRED = ("src/varseq/__init__.py", "models/mechanics.jv",
            "models/quantum.jv", "models/helmholtz.jv",
            "docs/output.schema.json", "docs/form.schema.json",
            "tests/golden/mechanics_cartan.txt")
DEADLINE_S = 170.0        # whole run, including set-up probes
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
SETUP_PROBES = 2          # set-up processes timed before and after a run


class BenchError(RuntimeError):
    pass


def worker_cmd(args, *extra) -> list:
    return [sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]


def spawn(cmd: list, deadline: float):
    """Start a worker; return (seconds until its 'ready' line, its last
    stdout line).  The worker is always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [],
                             max(1.0, deadline - time.time()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError("worker did not get ready: %r" % first)
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    lines = rest.strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def run_worker(args, deadline: float, traced: bool) -> tuple[float, dict]:
    extra = ["--trace"] if traced else []
    if args.plant_wrong_oracle:
        extra.append("--plant-wrong-oracle")
    ready_s, last = spawn(worker_cmd(args, *extra), deadline)
    report = json.loads(last)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "ops-%s-s%d-t%d.json"
                        % (args.workload, args.seed, int(traced)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in report.items() if k != "trace"}, fh)
    return ready_s, report


def end_to_end(report: dict, setup: list) -> tuple[dict, dict]:
    lat = sorted(op["latency_s"] for op in report["ops"])
    n = len(lat)
    if n <= TAIL_BEYOND:
        raise BenchError("too few ops (%d) for a tail percentile" % n)
    tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / report["wall_s"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * lat[n - TAIL_BEYOND - 1], "ms"),
        "latency_geomean_ms": (1e3 * math.exp(statistics.fmean(
            math.log(max(x, 1e-9)) for x in lat)), "ms"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024.0, "MB"),
    }
    info = {"tail_percentile": tail_pct, "samples": n,
            "setup_samples_s": setup}
    return metrics, info


def per_layer(untraced: dict, traced: dict) -> dict:
    sys.path.insert(0, BENCH)
    from spans import layer_metrics
    trace = traced["trace"]
    metrics = layer_metrics(trace["aggregate"])
    metrics["cli.import_s"] = (trace["import_s"], "s")
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / untraced["wall_s"], "ratio")
    return metrics


def outcome(reports: list) -> dict:
    ops = reports[-1]["ops"]
    failed = [op for r in reports for op in r["ops"] if op["status"] == "fail"]
    known = [op for op in ops if op["status"] == "known"]
    return {"attempted": len(ops), "failed": len(failed),
            "known_defects": len(known),
            "fail_ratio": (sum(op["status"] != "ok" for op in ops)
                           / len(ops)),
            "failures": [(op["label"], op["why"]) for op in failed][:20]}


def check_checkout() -> None:
    missing = [p for p in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a varseq checkout (missing %s)"
                         % ", ".join(missing))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-oracle", action="store_true",
                    help="self-check: invert the first op's oracle verdict")
    args = ap.parse_args()
    deadline = time.time() + DEADLINE_S
    try:
        check_checkout()
        if args.trace:
            _, untraced = run_worker(args, deadline, traced=False)
            _, traced = run_worker(args, deadline, traced=True)
            if [op["label"] for op in traced["ops"]] != \
                    [op["label"] for op in untraced["ops"]]:
                raise BenchError("traced and untraced runs differ in ops")
            # the traced outputs are checked against the untraced run's,
            # whose outputs went through the oracles
            if traced["output_digest"] != untraced["output_digest"]:
                raise BenchError("tracing changed the outputs")
            reports = [untraced, traced]
            metrics = per_layer(untraced, traced)
            info = {"untraced_ops": len(untraced["ops"])}
        else:
            # set-up samples before, during and after the run, so that
            # they see the machine at different moments
            probe = worker_cmd(args, "--setup-only")
            setup = [spawn(probe, deadline)[0] for _ in range(SETUP_PROBES)]
            ready_s, report = run_worker(args, deadline, traced=False)
            setup += [ready_s] + [spawn(probe, deadline)[0]
                                  for _ in range(SETUP_PROBES)]
            reports = [report]
            metrics, info = end_to_end(report, setup)
    except BenchError as exc:
        print("bench: error: %s" % exc, file=sys.stderr)
        return 2
    result = outcome(reports)
    last = reports[-1]
    info.update(result)
    info.update({k: last[k] for k in ("sweeps", "input_digest",
                                      "output_digest", "versions")})
    for name, (value, unit) in sorted(metrics.items()):
        print("%-44s %14.6g %s" % (name, value, unit))
    if not args.trace:
        print("%-44s %14.6g %s" % ("fail_ratio", result["fail_ratio"],
                                    "ratio"))
        print("tail = p%.1f of %d samples" % (info["tail_percentile"],
                                             info["samples"]))
    print("ops %d, unexpected failures %d, known defects %d, "
          "outputs %s, inputs %s" % (result["attempted"], result["failed"],
                                     result["known_defects"],
                                     last["output_digest"],
                                     last["input_digest"]))
    for label, why in result["failures"]:
        print("FAIL %s: %s" % (label, why))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-s%d-t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, "info": info}, fh, indent=1)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
