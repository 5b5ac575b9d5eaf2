"""One benchmark process: set up a workload, run it, check it.

Run from the root of a varseq checkout::

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 bench/worker.py --workload NAME --seed N --seconds S --setup-only

Prints ``ready`` once varseq is imported and the inputs are generated
(the parent times set-up up to that line), then runs every op once,
closed loop, timing each call.  After the timed phase it records peak
RSS, runs the oracles and prints one JSON line with the per-op records.
With ``--trace`` the varseq API is wrapped by :mod:`spans` for the
timed phase only, and the oracles are skipped: ``run.py`` compares the
traced outputs with those of an untraced, oracle-checked run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Seconds of --seconds per sweep: a run performs round(seconds / value)
# whole sweeps, at least one, so the op count and mix depend only on
# --seconds and --seed, never on timing.  On the reference machine (see
# README.md) a trivial-nbh sweep takes about 1.4 s.  A cli-models sweep
# (13 processes) takes 7 s, and three run every command in every format
# and leave more than ten samples beyond the latency tail.  An
# opaque-field sweep takes about 3.4 s; four leave more than ten samples
# beyond the tail.  A poly-sweep sweep takes 0.45 s cold and 0.15 s
# warm, and its oracles take three times as long as its ops; its tail
# (the 11th slowest op) needs about 3000 samples to be steady.  The values
# keep a run, with its set-up probes and oracles, under a minute.
SECONDS_PER_SWEEP = {
    "opaque-field": 2.5,
    "poly-sweep": 0.25,
    "cli-models": 3.3,
    "trivial-nbh": 1.2,
}


def sweeps_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_SWEEP[workload]))


def versions() -> dict:
    import platform
    import sympy
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10).stdout.strip() \
            or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "commit": commit}


def import_varseq() -> float:
    """Import varseq from the checkout's src/; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "varseq", "__init__.py")):
        raise SystemExit("worker: no src/varseq in %s" % ROOT)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import varseq.cli  # noqa: F401  (pulls in every module and sympy)
    elapsed = time.perf_counter() - t0
    import varseq
    if os.path.dirname(os.path.dirname(varseq.__file__)) != SRC:
        raise SystemExit("worker: varseq imported from %s, not %s"
                         % (varseq.__file__, SRC))
    return elapsed


def make_ops(workload: str, seed: int, sweeps: int, tracer=None):
    import workloads as wl
    if workload == "opaque-field":
        return wl.opaque_field(seed, sweeps)
    if workload == "poly-sweep":
        return wl.poly_sweep(seed, sweeps)
    if workload == "trivial-nbh":
        return wl.trivial_nbh(seed, sweeps, tracer)
    if workload == "cli-models":
        from schema import Validator
        validate = Validator(os.path.join(ROOT, "docs"), "output.schema.json")
        return wl.cli_models(seed, sweeps, ROOT, validate)
    raise SystemExit("worker: unknown workload %r" % workload)


def run_cli(argv: list, summary_path):
    """One fresh varseq CLI process, traced when summary_path is given;
    returns (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if summary_path is not None:
        cmd = [sys.executable, os.path.join(BENCH, "cli_traced.py"),
               summary_path, *argv]
    else:
        cmd = [sys.executable, "-m", "varseq.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def digest_text(out) -> str:
    """A stable rendering of an op's output, for the output digest."""
    from varseq import render
    from varseq.forms import Form
    from varseq.variational import SourceForm
    if isinstance(out, SourceForm):
        out = out.form
    if isinstance(out, Form):
        return render.form_text(out)
    if isinstance(out, (tuple, list)):
        return "(%s)" % ", ".join(digest_text(x) for x in out)
    if isinstance(out, dict):
        return "{%s}" % ", ".join("%s: %s" % (k, digest_text(out[k]))
                                  for k in sorted(out))
    if isinstance(out, bytes):
        return out.decode("utf-8", "replace")
    return str(getattr(out, "status", out))


def sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def inputs_digest(ops) -> str:
    return sha("%s|%r" % (op.kind, op.desc) for op in ops)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inputs-digest", action="store_true",
                    help="print the digest of the generated inputs and exit")
    ap.add_argument("--plant-wrong-oracle", action="store_true")
    args = ap.parse_args()

    import_s = import_varseq()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    sweeps = sweeps_for(args.workload, args.seconds)
    ops = make_ops(args.workload, args.seed, sweeps, tracer)
    if args.inputs_digest:
        print(inputs_digest(ops))
        return 0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import known_defect
    os.makedirs(OUT_DIR, exist_ok=True)
    summary_paths = []
    results: dict = {}
    records = []
    cli = args.workload == "cli-models"
    if tracer is not None and not cli:
        tracer.install()
    wall0 = time.perf_counter()
    for n, op in enumerate(ops):
        err = None
        out = None
        if cli and tracer is not None:
            summary_paths.append(os.path.join(
                OUT_DIR, "cli-trace-%d-%d.json" % (os.getpid(), n)))
        t0 = time.perf_counter()
        try:
            if cli:
                out = run_cli(op.argv, summary_paths[-1] if summary_paths
                              else None)
            else:
                out = op.run(results)
        except Exception as exc:  # an op failing is a measured outcome
            err = exc
        t1 = time.perf_counter()
        results[op.label] = out
        records.append([op, out, err, t1 - t0])
    wall = time.perf_counter() - wall0
    if tracer is not None:
        tracer.uninstall()
    if cli:
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # oracles, outside the timed region
    op_rows = []
    for n, (op, out, err, dt) in enumerate(records):
        check_s = 0.0
        if known_defect(op, out, err):
            status, why = "known", op.defect
        elif err is not None:
            status, why = "fail", "%s: %s" % (type(err).__name__, err)
        elif tracer is not None:
            # checked by run.py: its outputs must equal those of an
            # untraced, oracle-checked run of the same inputs
            status, why = "ok", None
        else:
            c0 = time.perf_counter()
            try:
                why = op.check(out, results)
            except Exception as exc:
                why = "oracle raised %s: %s" % (type(exc).__name__, exc)
            if args.plant_wrong_oracle and n == 0:
                why = "planted wrong answer" if why is None else None
            status = "ok" if why is None else "fail"
            check_s = time.perf_counter() - c0
        op_rows.append({"kind": op.kind, "label": op.label,
                        "latency_s": dt, "check_s": check_s,
                        "status": status, "why": why})

    report = {
        "workload": args.workload, "seed": args.seed, "sweeps": sweeps,
        "wall_s": wall, "maxrss_kb": maxrss_kb, "import_s": import_s,
        "ops": op_rows,
        "input_digest": inputs_digest(ops),
        "output_digest": sha(digest_text(r[1]) for r in records),
        "versions": versions(),
    }
    if tracer is not None:
        report["trace"] = trace_report(
            tracer, summary_paths, import_s,
            os.path.join(OUT_DIR, "spans-%s-s%d.jsonl"
                         % (args.workload, args.seed)))
    print(json.dumps(report), flush=True)
    return 0


def trace_report(tracer, summary_paths: list, import_s: float,
                 spans_path: str) -> dict:
    """Merge the trace of this process, or of its traced CLI children,
    and write every span to spans_path (one JSON array per line:
    process, id, parent, name, start, end)."""
    from spans import merge
    if summary_paths:
        children = []
        for path in summary_paths:
            with open(path, encoding="utf-8") as fh:
                children.append(json.load(fh))
            os.remove(path)
        agg = merge([c["aggregate"] for c in children])
        imports = sorted(c["import_s"] for c in children)
        import_s = imports[len(imports) // 2]
        per_process = [c["spans"] for c in children]
    else:
        agg = tracer.aggregate()
        agg["counters"]["cartan_ops_out"] = tracer.cartan_ops_out()
        per_process = [tracer.spans]
    with open(spans_path, "w", encoding="utf-8") as fh:
        for proc, spans in enumerate(per_process):
            for rec in spans:
                fh.write(json.dumps([proc, *rec]) + "\n")
    return {"aggregate": agg, "import_s": import_s}


if __name__ == "__main__":
    sys.exit(main())
