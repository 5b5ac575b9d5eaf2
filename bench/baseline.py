"""Reproduce the ROADMAP baseline table and answer its two open questions.

Run from the root of a varseq checkout::

    python3 bench/baseline.py

Every measurement runs in a fresh process, so varseq's and sympy's
caches are cold, and is repeated three times; ``bench/BENCH_1.json``
records the median and the minimum with the commit, the Python and
sympy versions and ``nproc``.

- ``table``: ``euler_lagrange`` and ``cartan_form`` on the opaque
  Lagrangian ``L(x, y, ..., y_J)`` at (n, m, r) = (2, 2, 2) and (2, 1, 3),
  and ``helmholtz`` of the EL form at (1, 2, 2).
- ``profile``: ``cartan_form`` with the residual self-check replaced by a
  no-op, at run time in the child only (the difference to the table is
  the verification cost), and one traced call each of ``cartan_form``
  (2, 2, 2) and ``helmholtz`` (1, 2, 2) giving the shares of
  verification and of ``Form`` construction (``Form.__init__``, which
  includes ``jet_order``) in their wall time.
- ``criterion9``: the calls of ``test_criterion_9_bosonic_string``, timed
  piece by piece: the library (``cartan_form``, ``noether_current``,
  ``probe``) against the test's own ``sp.simplify(sp.radsimp(...))``
  and its ``accept`` filter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
CASES = ((2, 2, 2), (2, 1, 3))
REPEATS = 3
OUT = os.path.join(BENCH, "BENCH_1.json")


def child_opaque(op: str, n: int, m: int, r: int, mode: str) -> dict:
    """Time one op on the opaque Lagrangian; mode is "plain", "no-verify"
    (residual self-check replaced by a no-op) or "traced" (report the
    shares of verification and of Form construction instead)."""
    from varseq import forms as fm, symexpr, variational as vr
    from varseq.jet_space import JetSpace, enumerate_coordinates
    if mode == "no-verify":
        vr._verify_residual = lambda mu, R, k: None
    space = JetSpace(("t", "x")[:n], ("u", "v")[:m])
    slots = [space.symbol(c) for c in enumerate_coordinates(space, r)]
    arg = symexpr.opaque("L", *slots) * fm.omega0(space)
    if op == "helmholtz":
        arg = vr.euler_lagrange(arg)
    tracer = None
    if mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    fn = getattr(vr, op)
    t0 = time.perf_counter()
    fn(arg)
    seconds = time.perf_counter() - t0
    if tracer is None:
        return {"seconds": seconds}
    tracer.uninstall()
    sums = tracer.aggregate()["sums"]
    key = "cartan" if op == "cartan_form" else "helmholtz"
    return {"seconds": seconds,
            "verify_share": sums["cartan_verify_s"] / sums["cartan_s"]
            if key == "cartan" else 0.0,
            "form_init_share": sums[key + "_form_init_s"] / sums[key + "_s"]}


def child_criterion9() -> dict:
    """The body of test_criterion_9_bosonic_string, timed by piece."""
    import sympy as sp
    from varseq import forms as fm, probe, prolong as pr, symexpr
    from varseq import variational as vr
    from varseq.jet_space import JetSpace, MultiIndex
    clock = time.perf_counter
    t = dict.fromkeys(("momenta_s", "test_simplify_s", "probe_s",
                       "test_accept_s", "cartan_form_s", "noether_current_s",
                       "test_equals_s"), 0.0)
    start = clock()
    space = JetSpace(("u", "v"), ("x0", "x1", "x2", "x3"))
    T = sp.Symbol("T")
    g = {0: sp.Integer(1), 1: sp.Integer(-1), 2: sp.Integer(-1),
         3: sp.Integer(-1)}
    Jdir = (MultiIndex((1,)), MultiIndex((2,)))

    def xj(mu, i):
        return space.fibre_symbol(mu + 1, Jdir[i])

    def x(mu):
        return space.fibre_symbol(mu + 1)

    t0 = clock()
    h = [[sum(g[mu] * xj(mu, i) * xj(mu, j) for mu in range(4))
          for j in (0, 1)] for i in (0, 1)]
    D = sp.expand(h[0][0] * h[1][1] - h[0][1] * h[1][0])
    L = -T * sp.sqrt(-D)
    p = {}
    for i in (0, 1):
        a, b = (0, 1) if i == 0 else (1, 0)
        for mu in range(4):
            disp = sp.Integer(0)
            for al in range(4):
                for be in range(4):
                    for nu in range(4):
                        gab = g[al] if al == be else 0
                        gmn = g[mu] if mu == nu else 0
                        gam = g[al] if al == mu else 0
                        gbn = g[be] if be == nu else 0
                        c = gab * gmn - gam * gbn
                        if c != 0:
                            disp += c * xj(al, a) * xj(be, b) * xj(nu, b)
            disp = -(T / sp.sqrt(-D)) * disp
            der = sp.diff(L, xj(mu, i))
            s0 = clock()
            assert sp.simplify(sp.radsimp(sp.together(der - disp))) == 0
            t["test_simplify_s"] += clock() - s0
            p[(i, mu)] = der
    t["momenta_s"] = clock() - t0 - t["test_simplify_s"]
    cfg = probe.ProbeConfig(seed=11, trials=20, bound=9, tolerance=1e-9)

    def accept(assignment):
        s0 = clock()
        ok = D.subs(assignment) < 0
        t["test_accept_s"] += clock() - s0
        return ok

    t0 = clock()
    for i in (0, 1):
        lhs = sum(p[(i, mu)] * xj(mu, i) for mu in range(4))
        assert probe.exprs_equal_probabilistic(
            space, lhs, -T * sp.sqrt(-D), cfg, order=1, params=(T,),
            accept=accept).status == "equal"
        lhs = sum(p[(i, mu)] * xj(mu, 1 - i) for mu in range(4))
        assert probe.exprs_equal_probabilistic(
            space, lhs, sp.Integer(0), cfg, order=1, params=(T,),
            accept=accept).status == "equal"
    t["probe_s"] = clock() - t0 - t["test_accept_s"]
    slots = tuple(xj(mu, i) for mu in range(4) for i in (0, 1))
    Lop = symexpr.opaque("L", *slots)
    t0 = clock()
    theta = vr.cartan_form(Lop * fm.omega0(space))
    t["cartan_form_s"] = clock() - t0
    pop = {(i, mu): sp.diff(Lop, xj(mu, i))
           for i in (0, 1) for mu in range(4)}
    dtau = {0: fm.dx(space, 1), 1: fm.dx(space, 2)}
    checks = []
    for mu in range(4):
        checks.append(({mu + 1: sp.Integer(1)},
                       -pop[(1, mu)] * dtau[0] + pop[(0, mu)] * dtau[1]))
    for s in (1, 2, 3):
        checks.append(({1: x(s), s + 1: x(0)},
                       (-pop[(1, 0)] * x(s) - pop[(1, s)] * x(0)) * dtau[0]
                       + (pop[(0, 0)] * x(s) + pop[(0, s)] * x(0))
                       * dtau[1]))
    for a, b in ((1, 2), (2, 3), (3, 1)):
        checks.append(({a + 1: x(b), b + 1: -x(a)},
                       (-pop[(1, a)] * x(b) + pop[(1, b)] * x(a)) * dtau[0]
                       + (pop[(0, a)] * x(b) - pop[(0, b)] * x(a))
                       * dtau[1]))
    for Xi, expected in checks:
        X = pr.ProjectableVectorField(space, {}, Xi)
        s0 = clock()
        Psi, _ = pr.noether_current(theta, X, check_lepage=False)
        t["noether_current_s"] += clock() - s0
        s0 = clock()
        assert Psi.equals(fm.lift(expected, Psi.order)) is True
        t["test_equals_s"] += clock() - s0
    t["total_s"] = clock() - start
    return t


def run_child(args: list) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--child", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(samples: list) -> dict:
    keys = samples[0].keys()
    return {k: {"median": statistics.median(s[k] for s in samples),
                "min": min(s[k] for s in samples)} for k in keys}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", nargs="+", help="internal: one measurement")
    args = ap.parse_args()
    if args.child:
        kind, rest = args.child[0], args.child[1:]
        if kind == "criterion9":
            out = child_criterion9()
        else:
            n, m, r = map(int, rest[:3])
            out = child_opaque(kind, n, m, r, rest[3])
        print(json.dumps(out))
        return 0

    sys.path.insert(0, BENCH)
    from worker import import_varseq, versions
    import_varseq()
    record = {"versions": versions(), "repeats": REPEATS,
              "table": [], "profile": [], "criterion9": None}
    def measure(section, op, case, mode):
        argv = [op, *map(str, case), mode]
        row = {"case": list(case), "op": op, "mode": mode,
               **summarize([run_child(argv) for _ in range(REPEATS)])}
        record[section].append(row)
        print(json.dumps(row), flush=True)

    for case in CASES:
        for op in ("euler_lagrange", "cartan_form"):
            measure("table", op, case, "plain")
    measure("table", "helmholtz", (1, 2, 2), "plain")
    for case in CASES:
        measure("profile", "cartan_form", case, "no-verify")
    measure("profile", "cartan_form", (2, 2, 2), "traced")
    measure("profile", "helmholtz", (1, 2, 2), "traced")
    samples = [run_child(["criterion9"]) for _ in range(REPEATS)]
    record["criterion9"] = summarize(samples)
    print(json.dumps(record["criterion9"]), flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
