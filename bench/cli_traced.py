"""Run one ``varseq`` CLI command with the span tracer installed.

    python3 bench/cli_traced.py SUMMARY_PATH <varseq CLI arguments...>

Behaves like ``python -m varseq.cli`` (same stdout and exit code) and
writes the trace aggregate and the spans of the process, plus the time
taken by ``import varseq.cli``, to SUMMARY_PATH as JSON.  Run with the
checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time

if __name__ == "__main__":
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import varseq.cli
    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = varseq.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    agg["counters"]["cartan_ops_out"] = tracer.cartan_ops_out()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"aggregate": agg, "import_s": import_s,
                   "spans": tracer.spans}, fh)
    sys.exit(code)
