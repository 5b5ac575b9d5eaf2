import random

import mpmath
import pytest
import sympy as sp
from sympy.core.function import AppliedUndef
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varseq import symexpr
from varseq.jet_space import JetSpace, MultiIndex

from conftest import random_polynomial


@pytest.fixture
def slots(mech):
    t = mech.base_symbol(1)
    q = mech.fibre_symbol(1)
    qt = mech.fibre_symbol(1, MultiIndex((1,)))
    return t, q, qt


def test_total_derivative_polynomial(mech):
    t, q, qt, qtt = sp.symbols("t q q_t q_tt")
    e = q**2 * t
    assert symexpr.total_derivative(mech, e, 1) == q**2 + 2 * q * qt * t
    assert symexpr.total_derivative(mech, qt, 1) == qtt


def test_total_derivative_opaque_chain(mech, slots):
    t, q, qt = slots
    L = symexpr.opaque("L", t, q, qt)
    qtt = sp.Symbol("q_tt")
    expected = (sp.diff(L, t) + sp.diff(L, q) * qt + sp.diff(L, qt) * qtt)
    got = symexpr.total_derivative(mech, L, 1)
    assert sp.expand(got - expected) == 0


def test_total_derivatives_commute_opaque(field2):
    t, x = field2.base_symbol(1), field2.base_symbol(2)
    v = field2.fibre_symbol(1)
    F = symexpr.opaque("F", t, x, v)
    d1 = lambda e: symexpr.total_derivative(field2, e, 1)
    d2 = lambda e: symexpr.total_derivative(field2, e, 2)
    assert sp.expand(d1(d2(F)) - d2(d1(F))) == 0


def test_partial_vs_sympy_diff_on_opaque(mech, slots):
    t, q, qt = slots
    L = symexpr.opaque("L", t, q, qt)
    e = L**2 * qt + sp.sqrt(1 + L)
    for s in (t, q, qt):
        assert sp.expand(symexpr.partial(mech, e, s) - sp.diff(e, s)) == 0


def test_partial_of_derivative_atom(mech, slots):
    t, q, qt = slots
    L = symexpr.opaque("L", t, q, qt)
    d1 = sp.diff(L, qt)
    # second partials agree with sympy and commute
    a = symexpr.partial(mech, d1, q)
    b = sp.diff(d1, q)
    assert sp.expand(a - b) == 0
    assert sp.expand(symexpr.partial(mech, symexpr.partial(mech, L, q), qt)
                     - symexpr.partial(mech, symexpr.partial(mech, L, qt), q)
                     ) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_total_derivative_linear_random(seed):
    space = JetSpace(("t",), ("q",))
    rng = random.Random(seed)
    e1 = random_polynomial(space, 1, rng)
    e2 = random_polynomial(space, 1, rng)
    d = lambda e: symexpr.total_derivative(space, e, 1)
    assert sp.expand(d(e1 + e2) - d(e1) - d(e2)) == 0
    assert sp.expand(d(e1 * e2) - d(e1) * e2 - e1 * d(e2)) == 0


def test_equal_verdicts(mech):
    q, qt = sp.symbols("q q_t")
    assert symexpr.equal((q + qt) ** 2, q**2 + 2 * q * qt + qt**2) is True
    assert symexpr.equal(q, qt) is False
    # radical-bearing difference: unknown, deferred to the probe
    assert symexpr.equal(sp.sqrt(q**2), q) is None


def test_is_rational_closed(mech):
    q = sp.Symbol("q")
    L = symexpr.opaque("L", q)
    assert symexpr.is_rational_closed(q**2 / (1 + q))
    assert symexpr.is_rational_closed(L * q)
    assert not symexpr.is_rational_closed(sp.sqrt(q))


_T = sp.Symbol("t")


@pytest.mark.parametrize("lhs, rhs", [
    (sp.GoldenRatio**2, sp.GoldenRatio + 1),
    (sp.TribonacciConstant**3,
     sp.TribonacciConstant**2 + sp.TribonacciConstant + 1),
    (sp.Integral(_T, (_T, 0, 1)), sp.Rational(1, 2)),
    (sp.Derivative(_T, _T), 1),
])
def test_equal_never_false_on_true_identities(lhs, rhs):
    # algebraic constants, bound variables and derivatives of
    # non-atoms are not free atoms: no exact False
    assert symexpr.equal(lhs, rhs) is not False


def test_equal_transcendental_constants_stay_atoms():
    q = sp.Symbol("q")
    assert symexpr.equal(sp.pi * q, sp.E * q) is False
    L = symexpr.opaque("L", _T, q)
    assert symexpr.equal(sp.diff(L, q) * q, sp.diff(L, _T) * q) is False


@pytest.mark.parametrize("name", sorted(symexpr.FUNCTIONS))
def test_function_table_round_trips_through_json(name):
    e = symexpr.FUNCTIONS[name](_T)
    node = symexpr.expr_to_json(e)
    assert symexpr.expr_from_json(node) == e


@pytest.mark.parametrize("name", ["Symbol", "Matrix", "Poly", "Eq",
                                  "Function", "Lambda", "Subs", "Integral",
                                  "Derivative"])
def test_json_rejects_functions_outside_the_table(name):
    node = {"kind": "func", "name": name,
            "args": [{"kind": "symbol", "name": "t"}]}
    with pytest.raises(ValueError, match="unknown function"):
        symexpr.expr_from_json(node)


def test_eval_at_with_instantiation(mech, slots):
    t, q, qt = slots
    L = symexpr.opaque("L", t, q, qt)
    e = sp.diff(L, qt) * q
    inst = {"L": qt**2 / 2}
    value = symexpr.eval_at(mech, e, {t: 1, q: 2, qt: 3}, inst)
    assert value == 6


_q, _s = sp.symbols("q s")


@pytest.mark.parametrize("e, at, expected", [
    (sp.sqrt(_q), sp.Rational(4, 9), sp.Rational(2, 3)),
    (_q ** sp.Rational(-3, 2), sp.Rational(9, 4), sp.Rational(8, 27)),
    (sp.Abs(_q), -3, sp.Integer(3)),
    (sp.sign(_q), -3, sp.Integer(-1)),
    (sp.log(_q), 1, sp.Integer(0)),
    (sp.exp(_q - 1) ** -2, 1, sp.Integer(1)),
    (1 / sp.sign(_q), -3, sp.Integer(-1)),
    (sp.Integral(_q, (_s, 0, 1)), 2, 2.0),
    (sp.sqrt(2) * _q, 1, 1.4142135623730951),
    (sp.pi * _q, sp.Rational(1, 2), 1.5707963267948966),
])
def test_eval_at_edge_cases(mech, e, at, expected):
    # exact where every node's value is rational, a float elsewhere
    prec = mpmath.mp.prec
    value = symexpr.eval_at(mech, e, {_q: at})
    assert type(value) is type(expected) or (
        isinstance(value, sp.Rational) and isinstance(expected, sp.Rational))
    assert value == expected
    assert mpmath.mp.prec == prec  # the global precision is never written


@pytest.mark.parametrize("e, at", [
    (1 / (_q - 1), 1), (sp.sqrt(_q), -2), (sp.log(_q), 0),
    (_q ** sp.Rational(1, 3), -8), (sp.asin(_q), 2),
    (_q * sp.zoo, 1), (sp.I * _q, 1)])
def test_eval_at_undefined_point(mech, e, at):
    with pytest.raises(symexpr.UndefinedAt, match=r"\{q: -?\d+\}"):
        symexpr.eval_at(mech, e, {_q: at})


def test_eval_at_missing_value_or_instantiation(mech, slots):
    t, q, qt = slots
    with pytest.raises(ValueError, match=r"missing assignment for \['q_t'"):
        symexpr.eval_at(mech, q * qt + t, {q: 1})
    L = symexpr.opaque("L", t, q, qt)
    with pytest.raises(ValueError, match="without registered instantiation"):
        symexpr.eval_at(mech, sp.diff(L, qt) + L, {t: 1, q: 1, qt: 1})
    with pytest.raises(ValueError, match="not a rational value"):
        symexpr.eval_at(mech, q, {q: sp.sqrt(2)})


# eval_at against sympy's own xreplace + evalf

_MECH = JetSpace(("t",), ("q",))
_EVAL_SYMS = sp.symbols("t q q_t m")


def _arith(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] - p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        pairs.map(lambda p: p[0] / p[1]),
        st.tuples(children, st.sampled_from(
            [2, 3, -1, -2, sp.Rational(1, 2), sp.Rational(-1, 2)]))
        .map(lambda p: p[0] ** p[1]),
        st.tuples(st.sampled_from([sp.sqrt, sp.exp, sp.sin, sp.log, sp.Abs]),
                  children).map(lambda p: p[0](p[1])),
    )


_EVAL_EXPRS = st.recursive(
    st.sampled_from(list(_EVAL_SYMS) + [sp.Integer(2), sp.Rational(-1, 3),
                                        sp.pi, sp.E]),
    _arith, max_leaves=10)
_POINTS = st.tuples(*[st.builds(sp.Rational, st.integers(-6, 6),
                                st.integers(1, 6)) for _ in _EVAL_SYMS])


def _sympy_value(e, point):
    """sympy's value at the point: a Rational, a Float, or None for nan,
    zoo, oo or a non-real number."""
    v = e.xreplace(point)
    if v.is_Rational:
        return v
    v = v.evalf(40)
    return v if v.is_Float else None


@settings(max_examples=300, deadline=None)
@given(_EVAL_EXPRS, _POINTS)
def test_eval_at_matches_sympy(e, values):
    point = dict(zip(_EVAL_SYMS, values))
    ref = _sympy_value(e, point)
    try:
        value = symexpr.eval_at(_MECH, e, point)
    except symexpr.UndefinedAt:
        # undefined exactly where some node's value is
        assert any(_sympy_value(n, point) is None
                   for n in sp.preorder_traversal(e))
        return
    assert ref is not None
    if isinstance(value, sp.Rational) or (
            symexpr.is_rational_closed(e) and not e.atoms(sp.NumberSymbol)):
        assert value == ref and isinstance(value, sp.Rational)
    else:
        # inexact: sympy may still be exact (sqrt(2)*sqrt(2), 0*sqrt(2))
        assert abs(value - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


def test_expr_json_round_trip(mech, slots):
    t, q, qt = slots
    L = symexpr.opaque("L", t, q, qt)
    exprs = [sp.Rational(3, 7), q**2 - qt / 2, sp.diff(L, qt),
             sp.sqrt(1 + q**2), L * sp.diff(L, q, qt), sp.pi * q + sp.E]
    for e in exprs:
        node = symexpr.expr_to_json(e)
        back = symexpr.expr_from_json(node)
        assert sp.expand(back - e) == 0
        # serialization is deterministic
        assert symexpr.expr_to_json(back) == node


def test_canonicalize_idempotent(mech):
    q, qt = sp.symbols("q q_t")
    e = (q + qt) * (q - qt)
    c = symexpr.canonicalize(e)
    assert symexpr.canonicalize(c) == c
    assert sp.expand(c - e) == 0


# partial: the chain-rule walk against sympy's diff

_SPACE = JetSpace(("t", "x"), ("v", "w"))
_SYMS = list(sp.symbols("t x v w v_t v_x w_t v_tx w_tt T"))
_t, _x, _v, _w, _v_t, _v_x = _SYMS[:6]
_F = sp.Function("F")(_t, _v, _v_x)
_G = sp.Function("G")(_x, _w, _v_t)
_H = sp.Function("H")(_t + _v)
_LEAVES = [s for s in _SYMS if s.name != "w_tt"] + [
    sp.Integer(3), sp.Rational(-1, 2), sp.pi, sp.E,
    _F, _G, sp.diff(_F, _v_x), sp.diff(_G, _v_t, _w, _w), _H]


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        st.tuples(children,
                  st.sampled_from([2, 3, -1, sp.Rational(1, 2),
                                   sp.Rational(-3, 2), _SYMS[-1]]))
        .map(lambda p: p[0] ** p[1]),
        st.tuples(st.sampled_from([sp.sin, sp.cos, sp.exp, sp.log,
                                   sp.sqrt]), children)
        .map(lambda p: p[0](p[1])),
    )


def _same_function(a, b, points=3) -> bool:
    """a == b after expansion, or at random positive points.

    Distinct rewritings of one power (t/sqrt(t**2) and sqrt(t**2)/t, or
    t*(t**2)**(T - 1) and (t**2)**T/t) survive expansion, so the points
    decide there.  Opaque atoms, derivative records and the Subs records
    of atoms with expression slots become independent positive variables.
    """
    if sp.expand(a - b) == 0:
        return True
    kinds = (sp.Subs, sp.Derivative, AppliedUndef)
    rep = {f: sp.Dummy(positive=True)
           for f in a.atoms(*kinds) | b.atoms(*kinds)}
    a, b = a.xreplace(rep), b.xreplace(rep)
    rng = random.Random(0)
    names = sorted(a.free_symbols | b.free_symbols, key=sp.default_sort_key)
    for _ in range(points):
        at = {v: sp.Rational(k, 100)
              for v, k in zip(names, rng.sample(range(50, 200), len(names)))}
        va = complex(a.xreplace(at).evalf(30))
        vb = complex(b.xreplace(at).evalf(30))
        if abs(va - vb) > 1e-12 * max(1.0, abs(va), abs(vb)):
            return False
    return True


_ABSENT = sp.sqrt(1 + _F**2) * sp.sin(_v) ** 3 + sp.diff(_F, _v_x) / _v


_EXPRS = st.recursive(st.sampled_from(_LEAVES), _combine, max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(_EXPRS, st.sampled_from(_SYMS))
@example(_ABSENT, sp.Symbol("w_t"))
@example(_ABSENT, sp.Symbol("T"))
def test_partial_matches_sympy_diff(e, s):
    assume(not e.has(sp.nan, sp.zoo, sp.oo, -sp.oo))
    got = symexpr.partial(_SPACE, e, s)
    assert _same_function(got, sp.diff(e, s))
    if s not in e.free_symbols:
        assert got is sp.S.Zero


def _td_reference(e, i):
    """d_i e = de/dx^i + sum y^sigma_{Ji} de/dy^sigma_J, through sp.diff."""
    out = sp.Integer(0)
    for x in e.free_symbols:
        coord = _SPACE.coordinate_of(x)
        if coord is None:
            continue
        if coord.kind == "fibre":
            out += (_SPACE.fibre_symbol(coord.index, coord.J.append(i))
                    * sp.diff(e, x))
        elif coord.index == i:
            out += sp.diff(e, x)
    return out


@settings(max_examples=100, deadline=None)
@given(_EXPRS, st.sampled_from([1, 2]))
@example(_ABSENT, 1)
def test_total_derivative_matches_sympy_diff(e, i):
    assume(not e.has(sp.nan, sp.zoo, sp.oo, -sp.oo))
    got = symexpr.total_derivative(_SPACE, e, i)
    assert _same_function(got, _td_reference(e, i))


def test_total_derivative_exact_where_sympy_equality_is_coarse():
    space = JetSpace(("t", "x"), ("u", "v"))
    T, t, u_t, u_x, u_tt = sp.symbols("T t u_t u_x u_tt")
    # sympy compares Subs by the printed names of their points, so c == d
    # although t_pos is another symbol than t; a memo keyed by == would
    # answer for one with the other's total derivative
    t_pos = sp.Symbol("t", positive=True)
    c = sp.Subs(u_x**2, u_x, t)
    d = sp.Subs(u_x**2, u_x, t_pos)
    assert c == d
    cases = [(sp.Subs(u_x * T, u_x, u_t), T * u_tt),
             (sp.Subs(u_x * T, u_x, t), T), (c, 2 * t), (d, 2 * t_pos)]
    for order in (cases, cases[::-1]):
        symexpr._TD_CACHE.clear()
        for e, expected in order:
            got = symexpr.total_derivative(space, e, 1)
            assert sp.expand(got.doit() - expected) == 0, (e, got)


def test_memo_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(symexpr, "_MEMO_SIZE", 32)
    L = symexpr.opaque("L", _t, _v, _v_t)
    sizes = []
    for k in range(60):
        e = (k + 2) * L * _v_t**2 + k * _v * sp.diff(L, _v)
        got = symexpr.total_derivative(_SPACE, e, 1)
        assert sp.expand(got - _td_reference(e, 1)) == 0
        got = symexpr.partial(_SPACE, e, _v_t)
        assert sp.expand(got - sp.diff(e, _v_t)) == 0
        sizes.append(len(symexpr._TD_CACHE))
    assert 0 < max(sizes) <= 32
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # wiped when full
    assert not hasattr(symexpr, "_PD_CACHE")


@st.composite
def _atom_records(draw):
    """An opaque atom over distinct symbol slots, or a derivative record
    of one, and one of its slots."""
    slots = draw(st.lists(st.sampled_from(_SYMS), min_size=1, max_size=4,
                          unique=True))
    f = sp.Function(draw(st.sampled_from("FGL")))(*slots)
    wrt = draw(st.lists(st.sampled_from(slots), max_size=4))
    return (sp.diff(f, *wrt) if wrt else f), draw(st.sampled_from(slots))


@settings(max_examples=100, deadline=None)
@given(_atom_records())
def test_atom_partial_is_the_unevaluated_derivative(case):
    e, s = case
    counts = {}
    if isinstance(e, sp.Derivative):
        counts = {v: int(c) for v, c in e.variable_count}
    counts[s] = counts.get(s, 0) + 1
    pairs = sorted(counts.items(), key=lambda p: sp.default_sort_key(p[0]))
    base = e.expr if isinstance(e, sp.Derivative) else e
    expected = sp.Derivative(base, *pairs, evaluate=False)
    got = symexpr._atom_partial(e, s)
    assert got == expected and hash(got) == hash(expected)
    assert sp.srepr(got) == sp.srepr(expected)
    assert got == sp.diff(e, s)
