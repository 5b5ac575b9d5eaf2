"""Seeded workload generators and their oracles.

A workload is a list of :class:`Op`.  Each op is one closed-loop call
into varseq's public API (or, for ``cli-models``, one fresh ``varseq``
process).  Ops of one sweep may read the outputs of earlier ops of the
same sweep through ``results`` (e.g. ``helmholtz`` of the
``euler_lagrange`` output).  Every op carries an oracle, run after the
timed phase, built from the paper's identities:

- E o E = 0 (``helmholtz`` of an Euler-Lagrange form vanishes);
- ``is_lepage(cartan_form(lam)) is True`` and h(cartan_form(lam)) = lam;
- E_sigma against the classical sum_J (-1)^|J| d_J dL/dy^sigma_J;
- I o I = I for the interior Euler operator;
- p_k rho = I(rho) + p_k d R(rho) for the residual;
- the homotopy formula lift(rho) = A d rho + d A rho + chi_0^* rho;
- the Tonti round trip E(h A eps) = eps;
- the first-variation (Noether) formula for translation currents;
- L_X d rho = d L_X rho for Lie derivatives;
- d_H(primitive) = lambda for variationally trivial Lagrangians;
- d_H current = sum multiples * E for Noether-Bessel-Hagen currents.

Inputs depend only on the seed and the number of sweeps; the program
receives only the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import sympy as sp

from varseq import forms as fm
from varseq import probe, prolong as pr, symexpr, variational as vr
from varseq.forms import Dx, Form, Omega
from varseq.jet_space import JetSpace, MultiIndex, enumerate_coordinates, \
    multiindices

# Known defects (ROADMAP item 4).  An op tagged with one of these whose
# outcome is exactly the documented wrong outcome is counted in
# fail_ratio but not as an unexpected failure.
DEFECT_IS_ZERO = "is_zero-two-state"
DEFECT_NONPOLY = "nonpolynomial-primitive"


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], Optional[str]]
    desc: tuple  # the inputs; rendered only for the input digest
    defect: Optional[str] = None
    argv: Optional[list] = None  # cli-models: the CLI arguments


def known_defect(op: Op, out, err) -> bool:
    """True when the outcome is the documented wrong outcome of op.defect."""
    if op.defect == DEFECT_NONPOLY:
        return isinstance(err, vr.NonPolynomialError)
    if op.defect == DEFECT_IS_ZERO:
        return err is None and out is False
    return False


def _ok(flag: bool, why: str) -> Optional[str]:
    return None if flag else why


def _is_true(verdict, why: str) -> Optional[str]:
    return _ok(verdict is True, "%s (verdict %r)" % (why, verdict))


def _not_false(verdict, why: str) -> Optional[str]:
    """Three-state oracle: an unknown verdict is not a failure."""
    return _ok(verdict is not False, why)


def _dxs(space: JetSpace) -> tuple:
    return tuple(Dx(i) for i in range(1, space.n + 1))


def _source_coefficients(eps: Form) -> dict:
    """E_sigma of eps = E_sigma omega^sigma ^ omega_0."""
    space = eps.space
    return {s: eps.coefficient((Omega(s),) + _dxs(space))
            for s in range(1, space.m + 1)}


def _zero_like(rho: Form) -> Form:
    return fm.zero(rho.space, rho.degree)


# --------------------------------------------------------------------------
# opaque-field

GRID = [(n, m, r) for n in (1, 2) for m in (1, 2) for r in (1, 2)]
BASES = ("t", "x")
FIBRES = ("u", "v")


def helmholtz_fits(n: int, m: int, r: int) -> bool:
    """Helmholtz of the EL form takes under half a second for r = 1 and
    for (1, 1, 2).  (1, 2, 2) takes about 5 s and (2, 1, 2) about 17 s;
    one such op would outweigh the rest of a sweep, so they are measured
    by baseline.py instead."""
    return r == 1 or (n, m) == (1, 1)


def _space(n: int, m: int) -> JetSpace:
    return JetSpace(BASES[:n], FIBRES[:m])


def classical_el(space: JetSpace, L: sp.Expr, r: int) -> dict:
    """E_sigma = sum_J (-1)^|J| d_J (dL/dy^sigma_J), with sympy's diff."""
    out = {}
    for s in range(1, space.m + 1):
        total = sp.Integer(0)
        for k in range(r + 1):
            for J in multiindices(space.n, k):
                dL = sp.diff(L, space.fibre_symbol(s, J))
                total += (-1) ** k * symexpr.total_derivative_multi(
                    space, dL, J)
        out[s] = total
    return out


def check_el_classical(eps: Form, L: sp.Expr, r: int) -> Optional[str]:
    E = _source_coefficients(eps)
    ref = classical_el(eps.space, L, r)
    return _ok(all(symexpr.equal(E[s], ref[s]) is True for s in ref),
               "EL differs from the classical formula")


def check_cartan_form(theta: Form, lam: Form) -> Optional[str]:
    """A Cartan form is Lepage and horizontalizes to its Lagrangian."""
    if fm.horizontalize(theta).equals(lam) is not True:
        return "h(cartan form) != lambda"
    return _is_true(vr.is_lepage(theta), "cartan form not Lepage")


def opaque_field(seed: int, sweeps: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for sweep in range(sweeps):
        for g, (n, m, r) in enumerate(GRID):
            space = _space(n, m)
            slots = [space.symbol(c) for c in enumerate_coordinates(space, r)]
            # a fresh atom name per item keeps varseq's and sympy's caches cold
            L = symexpr.opaque("L%d_%d_%d" % (seed, sweep, g), *slots)
            lam = L * fm.omega0(space)
            i = rng.randint(1, n)
            X = pr.ProjectableVectorField(space, {i: sp.Integer(1)}, {})
            tag = "%d.%d" % (sweep, g)
            key = {k: "%s:%s" % (k, tag) for k in ("el", "cartan")}
            desc = ((n, m, r), L)

            def check_noether(out, res, space=space, lam=lam, X=X, i=i,
                              key=key):
                # h L_X lam = sum_s (-y^s_i) E_s omega_0 + d_H current
                current = out[0]
                E = _source_coefficients(res[key["el"]].form)
                rhs = fm.d_H(current)
                for s, Es in E.items():
                    yi = space.fibre_symbol(s, MultiIndex((i,)))
                    rhs = rhs + (-yi * Es) * fm.omega0(space)
                lhs = fm.horizontalize(pr.lie_derivative(X, lam))
                return _is_true(lhs.equals(rhs), "first-variation formula")

            ops.append(Op("euler_lagrange", key["el"],
                          lambda res, lam=lam: vr.euler_lagrange(lam),
                          lambda out, res, L=L, r=r: check_el_classical(
                              out.form, L, r),
                          desc))
            ops.append(Op("cartan_form", key["cartan"],
                          lambda res, lam=lam: vr.cartan_form(lam),
                          lambda out, res, lam=lam: check_cartan_form(
                              out, lam),
                          desc))
            ops.append(Op("noether_current", "noether:" + tag,
                          lambda res, X=X, key=key:
                              pr.noether_current(res[key["cartan"]], X),
                          check_noether, desc + (i,)))
            if helmholtz_fits(n, m, r):
                ops.append(Op("helmholtz", "helmholtz:" + tag,
                              lambda res, key=key:
                                  vr.helmholtz(res[key["el"]]),
                              lambda out, res: _is_true(
                                  out.form.equals(_zero_like(out.form)),
                                  "E o E != 0"),
                              desc))
    return ops


# --------------------------------------------------------------------------
# poly-sweep

COEFFS = (-3, -2, -1, 1, 2, 3)


def random_poly(space: JetSpace, order: int, rng: random.Random,
                terms: int = 3) -> sp.Expr:
    """Integer polynomial on J^order: a top-order quadratic monomial, then
    monomials of degree 1, 2, ...  The seed picks coefficients and
    variables only, so op costs vary little from seed to seed."""
    coords = [space.symbol(c) for c in enumerate_coordinates(space, order)]
    top = [space.symbol(c) for c in enumerate_coordinates(space, order)
           if c.order == order and c.kind == "fibre"]
    out = rng.choice(COEFFS) * rng.choice(top) * rng.choice(coords)
    for degree in range(1, terms):
        mono = sp.Integer(rng.choice(COEFFS))
        for _ in range(degree):
            mono *= rng.choice(coords)
        out += mono
    return out


def _omega_atoms(space: JetSpace, order: int) -> list:
    return [Omega(s, J) for s in range(1, space.m + 1)
            for k in range(order) for J in multiindices(space.n, k)]


def random_contact_form(space: JetSpace, k: int, order: int,
                        rng: random.Random) -> Form:
    """A k-contact (n+k)-form on J^order with polynomial coefficients."""
    omegas = _omega_atoms(space, order)
    terms = {}
    for _ in range(2):
        atoms = tuple(rng.sample(omegas, k)) + _dxs(space)
        terms[atoms] = random_poly(space, order, rng, terms=2)
    return Form(space, space.n + k, terms, order=order)


def random_mixed_form(space: JetSpace, degree: int, order: int,
                      rng: random.Random) -> Form:
    """A form of the given degree mixing dx and omega atoms."""
    pool = list(_dxs(space)) + _omega_atoms(space, order)
    terms = {}
    for _ in range(3):
        atoms = tuple(rng.sample(pool, degree))
        terms[atoms] = random_poly(space, order, rng, terms=2)
    return Form(space, degree, terms, order=order)


def random_field(space: JetSpace, rng: random.Random, projectable: bool):
    """Vertical, or with base components xi^i linear in x."""
    base = [space.base_symbol(i) for i in range(1, space.n + 1)]
    fibre = [space.fibre_symbol(s) for s in range(1, space.m + 1)]
    xi = {i: rng.choice(COEFFS) * rng.choice(base + [sp.Integer(1)])
          for i in range(1, space.n + 1) if projectable}
    Xi = {s: random_poly_in(base + fibre, rng)
          for s in range(1, space.m + 1)}
    return pr.ProjectableVectorField(space, xi, Xi)


def random_poly_in(symbols: list, rng: random.Random) -> sp.Expr:
    out = sp.Integer(rng.choice(COEFFS))
    for _ in range(2):
        mono = sp.Integer(rng.choice(COEFFS))
        for _ in range(2):
            mono *= rng.choice(symbols)
        out += mono
    return out


def poly_sweep(seed: int, sweeps: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for sweep in range(sweeps):
        for g, (n, m, r) in enumerate(GRID):
            space = _space(n, m)
            tag = "%d.%d" % (sweep, g)
            L = random_poly(space, r, rng)
            lam = L * fm.omega0(space)
            # shapes cycle with the sweep, not with the seed
            k = 2 if len(_omega_atoms(space, r)) >= 2 and sweep % 2 else 1
            rho = random_contact_form(space, k, r, rng)
            sigma = random_mixed_form(space, 1 + sweep % (space.n + 1), r,
                                      rng)
            X = random_field(space, rng, projectable=sweep % 2 == 0)
            key = {x: "%s:%s" % (x, tag) for x in ("el", "cartan")}
            shape = "(%d,%d,%d)" % (n, m, r)

            def check_interior(out, res, rho=rho):
                again = vr.interior_euler(out.form).form
                return _is_true(again.equals(out.form), "I o I != I")

            def check_residual(R, res, rho=rho, k=k):
                p_k = fm.contact_component(rho, k)
                rest = p_k - vr.interior_euler(rho).form \
                    - fm.contact_component(fm.exterior_d(R), k)
                return _is_true(rest.equals(_zero_like(rest)),
                                "residual identity")

            def check_homotopy(A, res, sigma=sigma):
                total = vr.contact_homotopy(fm.exterior_d(sigma)) \
                    + fm.exterior_d(A) + vr.base_restriction(sigma)
                return _is_true(total.equals(sigma), "homotopy formula")

            def check_tonti(A, res, key=key):
                eps = res[key["el"]].form
                back = vr.euler_lagrange(fm.horizontalize(A)).form
                return _is_true(back.equals(eps), "Tonti round trip")

            def check_lie(out, res, X=X, lam=lam):
                lhs = pr.lie_derivative(X, fm.exterior_d(lam))
                return _is_true(lhs.equals(fm.exterior_d(out)),
                                "L_X d != d L_X")

            ops += [
                Op("euler_lagrange", key["el"],
                   lambda res, lam=lam: vr.euler_lagrange(lam),
                   lambda out, res, L=L, r=r: check_el_classical(
                       out.form, L, r),
                   (shape, lam)),
                Op("helmholtz", "helmholtz:" + tag,
                   lambda res, key=key: vr.helmholtz(res[key["el"]]),
                   lambda out, res: _is_true(
                       out.form.equals(_zero_like(out.form)), "E o E != 0"),
                   ("el:" + tag,)),
                Op("cartan_form", key["cartan"],
                   lambda res, lam=lam: vr.cartan_form(lam),
                   lambda out, res, lam=lam: check_cartan_form(out, lam),
                   (shape, lam)),
                Op("is_lepage", "is_lepage:" + tag,
                   lambda res, key=key: vr.is_lepage(res[key["cartan"]]),
                   lambda out, res: _is_true(out, "cartan form not Lepage"),
                   ("cartan:" + tag,)),
                Op("interior_euler", "interior_euler:" + tag,
                   lambda res, rho=rho: vr.interior_euler(rho),
                   check_interior, (shape, rho)),
                Op("residual", "residual:" + tag,
                   lambda res, rho=rho: vr.residual(rho),
                   check_residual, (shape, rho)),
                Op("contact_homotopy", "homotopy:" + tag,
                   lambda res, sigma=sigma: vr.contact_homotopy(sigma),
                   check_homotopy, (shape, sigma)),
                Op("contact_homotopy", "tonti:" + tag,
                   lambda res, key=key: vr.contact_homotopy(
                       res[key["el"]].form),
                   check_tonti, ("el:" + tag,)),
                Op("lie_derivative", "lie:" + tag,
                   lambda res, X=X, lam=lam: pr.lie_derivative(X, lam),
                   check_lie, (shape, lam, X)),
            ]
    return ops


# --------------------------------------------------------------------------
# trivial-nbh

MECH = JetSpace(("t",), ("q",))
PLANE = JetSpace(("t", "x"), ("u",))


def _trig_one(space: JetSpace) -> sp.Expr:
    y = space.fibre_symbol(1)
    return sp.sin(y) ** 2 + sp.cos(y) ** 2


def _rat(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.randint(1, 9), rng.randint(1, 4))


def trivial_lagrangian(space: JetSpace, rng: random.Random, j: int,
                       base_only: bool) -> Form:
    """d_H of a horizontal (n-1)-form with quadratic coefficients y * w.

    With ``base_only`` a purely base-dependent term is added, which the
    contact homotopy misses and the ansatz fallback must solve; w is then
    of order 0, which bounds the ansatz.  The position j, not the seed,
    picks w, so the cost of an item varies little between seeds.
    """
    order = 0 if base_only else 1
    coords = [space.symbol(c) for c in enumerate_coordinates(space, order)]
    base = [space.base_symbol(i) for i in range(1, space.n + 1)]
    y = space.fibre_symbol(1)
    eta = fm.zero(space, space.n - 1)
    for i in range(1, space.n + 1):
        mu = rng.choice(COEFFS) * y * coords[(j + i) % len(coords)]
        if base_only and i == 1:
            mu += rng.choice(COEFFS) * base[j % len(base)] ** 2
        eta = eta + mu * fm.omega_i(space, i)
    return fm.d_H(eta)


def nambu_goto():
    """Nambu-Goto momenta p[(i, mu)] and the radicand -D (criterion 9)."""
    space = JetSpace(("u", "v"), ("x0", "x1", "x2", "x3"))
    T = sp.Symbol("T")
    g = (1, -1, -1, -1)
    Jdir = (MultiIndex((1,)), MultiIndex((2,)))

    def xj(mu, i):
        return space.fibre_symbol(mu + 1, Jdir[i])

    h = [[sum(g[mu] * xj(mu, i) * xj(mu, j) for mu in range(4))
          for j in (0, 1)] for i in (0, 1)]
    D = sp.expand(h[0][0] * h[1][1] - h[0][1] * h[1][0])
    L = -T * sp.sqrt(-D)
    p = {(i, mu): sp.diff(L, xj(mu, i)) for i in (0, 1) for mu in range(4)}
    return space, T, D, p, xj


def trivial_nbh(seed: int, sweeps: int, tracer=None) -> list[Op]:
    rng = random.Random(seed)
    ng_space, T, D, p, xj = nambu_goto()

    def accept(assignment):
        # keep the radicand -D positive; xreplace is exact and, unlike
        # subs, cheap enough that the probe's own work dominates the op
        return bool(D.xreplace(assignment) < 0)

    if tracer is not None:
        accept = tracer.counting_accept(accept)
    identities = []
    for i in (0, 1):
        same = sum(p[(i, mu)] * xj(mu, i) for mu in range(4))
        cross = sum(p[(i, mu)] * xj(mu, 1 - i) for mu in range(4))
        identities += [(i, "self", same, -T * sp.sqrt(-D)),
                       (i, "cross", cross, sp.Integer(0))]
    ops: list[Op] = []
    q, qt, qtt = (MECH.fibre_symbol(1, MultiIndex((1,) * k))
                  for k in range(3))
    t = MECH.base_symbol(1)
    for sweep in range(sweeps):
        tag = "%d" % sweep
        # variational triviality; 2 of 6 need the ansatz fallback, and a
        # seventh item repeats a seeded one times sin^2 + cos^2
        lams = [trivial_lagrangian(MECH if j % 2 == 0 else PLANE, rng, j,
                                   base_only=j in (2, 3)) for j in range(6)]
        trig = lams[rng.randrange(6)]
        lams.append(_trig_one(trig.space) * trig)
        for j, lam in enumerate(lams):
            defect = DEFECT_NONPOLY if j == 6 else None

            def check_trivial(out, res, lam=lam):
                flag, primitive = out
                if flag is not True or primitive is None:
                    return "trivial Lagrangian not recognised (%r)" % (flag,)
                return _not_false(fm.d_H(primitive).equals(lam),
                                  "d_H(primitive) != lambda")

            ops.append(Op("is_variationally_trivial",
                          "trivial:%s.%d" % (tag, j),
                          lambda res, lam=lam:
                              vr.is_variationally_trivial(lam),
                          check_trivial, (lam,), defect))
        # Noether-Bessel-Hagen currents of mechanics
        mass, grav, spring = _rat(rng), _rat(rng), _rat(rng)
        E = {"free": -mass * qtt, "fall": -mass * qtt - mass * grav,
             "osc": -mass * qtt - spring * q}
        fields = {"shift": ({}, {1: sp.Integer(1)}),
                  "time": ({1: sp.Integer(1)}, {}),
                  "boost": ({}, {1: t})}
        pairs = [("free", "shift"), ("free", "time"), ("free", "boost"),
                 ("fall", "shift"), ("fall", "time"), ("fall", "boost"),
                 ("osc", "time")]
        # an eighth item repeats a seeded pair times sin^2 + cos^2
        pairs.append(pairs[rng.randrange(len(pairs))])
        for j, (model, fname) in enumerate(pairs):
            coeff = E[model]
            defect = None
            if j == 7:
                coeff = _trig_one(MECH) * coeff
                defect = DEFECT_NONPOLY
            eps = coeff * fm.wedge(fm.omega(MECH, 1), fm.dx(MECH, 1))
            X = pr.ProjectableVectorField(MECH, *fields[fname])

            def check_nbh(out, res, eps=eps):
                current, multiples = out
                rhs = fm.zero(MECH, MECH.n)
                for s, Es in _source_coefficients(eps).items():
                    rhs = rhs + multiples.get(s, 0) * Es * fm.omega0(MECH)
                return _not_false(fm.d_H(current).equals(rhs),
                                  "d_H current != multiples * E")

            ops.append(Op("nbh_current", "nbh:%s.%d" % (tag, j),
                          lambda res, X=X, eps=eps: pr.nbh_current(X, eps),
                          check_nbh, (model, fname, eps),
                          defect))
        # probe: Nambu-Goto momentum contraction identities on -D > 0,
        # each under two probe seeds
        for c in range(2):
            cfg = probe.ProbeConfig(seed=rng.randrange(10 ** 6), trials=10,
                                    bound=9)
            for i, name, lhs, rhs in identities:
                ops.append(Op(
                    "exprs_equal_probabilistic",
                    "probe:%s.%d.%d.%s" % (tag, c, i, name),
                    lambda res, lhs=lhs, rhs=rhs, cfg=cfg:
                        probe.exprs_equal_probabilistic(
                            ng_space, lhs, rhs, cfg, order=1, params=(T,),
                            accept=accept),
                    lambda out, res: _ok(out.status == "equal",
                                         "probe verdict %s" % out.status),
                    (i, name, cfg.seed)))
        # three-state: a zero form hidden behind sin^2 + cos^2 - 1
        hidden = (_trig_one(MECH) - 1) * random_poly(MECH, 1, rng, terms=2) \
            * fm.wedge(fm.omega(MECH, 1), fm.dx(MECH, 1))
        ops.append(Op("is_zero", "is_zero:" + tag,
                      lambda res, f=hidden: f.is_zero(),
                      lambda out, res: _not_false(out, "is_zero said False"),
                      (hidden,), DEFECT_IS_ZERO))
        ops.append(Op("equals", "equals:" + tag,
                      lambda res, f=hidden: f.equals(fm.zero(MECH, 2)),
                      lambda out, res: _not_false(out, "equals said False"),
                      (hidden,)))
    return ops


# --------------------------------------------------------------------------
# cli-models

GOLDEN_CALLS = {
    ("el", "quantum.jv", ("--form", "lam")): "schrodinger_el",
    ("cartan", "mechanics.jv", ("--form", "lam")): "mechanics_cartan",
    ("lepage", "mechanics.jv", ("--form", "eps")): "mechanics_lepage",
    ("helmholtz", "helmholtz.jv", ("--form", "eps")): "helmholtz_canonical",
    ("helmholtz-reduced", "helmholtz.jv", ("--form", "eps")):
        "helmholtz_reduced",
}
FORMAT_EXT = {"text": "txt", "latex": "tex", "json": "json"}

CLI_CASES = {
    "el": [("quantum.jv", ("--form", "lam")),
           ("mechanics.jv", ("--form", "lam"))],
    "helmholtz": [("helmholtz.jv", ("--form", "eps")),
                  ("mechanics.jv", ("--form", "eps"))],
    "helmholtz-reduced": [("helmholtz.jv", ("--form", "eps")),
                          ("mechanics.jv", ("--form", "eps"))],
    "cartan": [("mechanics.jv", ("--form", "lam")),
               ("quantum.jv", ("--form", "lam"))],
    "lepage-check": [("mechanics.jv", ("--form", "lam")),
                     ("quantum.jv", ("--form", "lam"))],
    "lepage": [("mechanics.jv", ("--form", "eps")),
               ("mechanics.jv", ("--form", "lam"))],
    "tonti": [("mechanics.jv", ("--form", "eps"))],
    "trivial": [("mechanics.jv", ("--form", "lam")),
                ("quantum.jv", ("--form", "lam"))],
    "noether": [("mechanics.jv", ("--form", "lam", "--field", "time")),
                ("mechanics.jv", ("--form", "lam", "--field", "shift"))],
    "first-variation": [
        ("mechanics.jv", ("--form", "lam", "--field", "shift")),
        ("mechanics.jv", ("--form", "lam", "--field", "time"))],
    "lie": [("mechanics.jv", ("--form", "lam", "--field", "time")),
            ("mechanics.jv", ("--form", "eps", "--field", "shift"))],
    "class-eq": [("mechanics.jv", ("--form", "lam", "--form", "lam")),
                 ("quantum.jv", ("--form", "lam", "--form", "lam"))],
    "probe": [("mechanics.jv", ("--form", "eps", "--form", "eps")),
              ("quantum.jv", ("--form", "lam", "--form", "lam"))],
}


def cli_models(seed: int, sweeps: int, root: str, validate) -> list[Op]:
    """One op per CLI invocation; each sweep runs all 13 commands.

    The first case of each command (the golden one, where a golden
    exists) runs in the first three sweeps, the next case in the
    following three, and so on.  The format rotates with the sweep and
    the command, from an offset set by the seed, so three sweeps run
    every command in every format and compare every golden file.
    """
    formats = sorted(FORMAT_EXT)
    offset = seed % len(formats)
    ops: list[Op] = []
    for sweep in range(sweeps):
        for c, (command, cases) in enumerate(CLI_CASES.items()):
            model, extra = cases[sweep // len(formats) % len(cases)]
            fmt = formats[(offset + sweep + c) % len(formats)]
            argv = [command, os.path.join("models", model), "--format", fmt,
                    *extra]
            golden = GOLDEN_CALLS.get((command, model, extra))
            golden_path = None if golden is None else os.path.join(
                root, "tests", "golden", "%s.%s" % (golden, FORMAT_EXT[fmt]))

            def check(out, res, fmt=fmt, golden_path=golden_path):
                code, stdout = out
                if code != 0:
                    return "exit code %d" % code
                if golden_path is not None:
                    with open(golden_path, "rb") as fh:
                        return _ok(stdout == fh.read(), "differs from golden")
                if fmt == "json":
                    return validate(json.loads(stdout.decode("utf-8")))
                return _ok(bool(stdout.strip()), "empty output")

            ops.append(Op("cli." + command, "cli:%d.%s" % (sweep, command),
                          None, check, tuple(argv), argv=argv))
    return ops
