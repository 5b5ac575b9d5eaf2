import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varseq import forms as fm
from varseq import symexpr, variational as vr
from varseq.forms import Dx, Form, Omega
from varseq.jet_space import JetSpace, MultiIndex, enumerate_coordinates

from conftest import random_polynomial


J1 = MultiIndex((1,))
J2 = MultiIndex((1, 1))


def random_form(space, degree, order, rng, contact=None):
    """A random form with polynomial coefficients on J^order."""
    from varseq.jet_space import multiindices
    atoms = [Dx(i) for i in range(1, space.n + 1)]
    max_J = max(order - 1, 0)
    for sigma in range(1, space.m + 1):
        for k in range(max_J + 1):
            for J in multiindices(space.n, k):
                atoms.append(Omega(sigma, J))
    out = fm.zero(space, degree, order)
    for _ in range(3):
        if contact is None:
            chosen = rng.sample(atoms, degree)
        else:
            cons = [a for a in atoms if isinstance(a, Omega)]
            dxs = [a for a in atoms if isinstance(a, Dx)]
            if contact > len(cons) or degree - contact > len(dxs):
                continue
            chosen = rng.sample(cons, contact) + rng.sample(dxs,
                                                            degree - contact)
        coeff = random_polynomial(space, order, rng)
        out = out + Form(space, degree, {tuple(chosen): coeff}, order=order)
    return out


def test_wedge_antisymmetry(mech2):
    w1 = fm.omega(mech2, 1)
    w2 = fm.omega(mech2, 2)
    assert (fm.wedge(w1, w2) + fm.wedge(w2, w1)).is_zero()
    assert fm.wedge(w1, w1).is_zero()


def test_wedge_sign_with_sorting(field2):
    dt, dx = fm.dx(field2, 1), fm.dx(field2, 2)
    a = fm.wedge(dx, dt)
    assert a.coefficient((Dx(1), Dx(2))) == -1


def test_contact_structure_equation(mech):
    # d omega^q_J = - omega^q_{Jt} ^ dt in mechanics
    for J in (MultiIndex(), J1):
        w = fm.omega(mech, 1, J)
        dw = fm.exterior_d(w)
        expected = fm.wedge(fm.dx(mech, 1), fm.omega(mech, 1, J.append(1)))
        assert dw.equals(expected) is True


def test_exterior_d_of_coordinate_function(mech):
    q = sp.Symbol("q")
    f = fm.scalar_form(mech, q, order=1)
    df = fm.exterior_d(f)
    # dq = omega^q + q_t dt
    assert df.coefficient((Omega(1, MultiIndex()),)) == 1
    assert df.coefficient((Dx(1),)) == sp.Symbol("q_t")


def test_d_squared_zero_polynomial():
    space = JetSpace(("t", "x"), ("v",))
    rng = random.Random(7)
    for _ in range(5):
        rho = random_form(space, 1, 1, rng)
        dd = fm.exterior_d(fm.exterior_d(rho))
        assert dd.is_zero()


def test_d_squared_zero_opaque(mech):
    t, q, qt = sp.Symbol("t"), sp.Symbol("q"), sp.Symbol("q_t")
    L = symexpr.opaque("L", t, q, qt)
    rho = L * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    assert fm.exterior_d(fm.exterior_d(rho)).is_zero()


def test_contact_components_partition(field2):
    rng = random.Random(3)
    rho = random_form(field2, 2, 1, rng)
    total = fm.zero(field2, 2, rho.order)
    for k in range(3):
        total = total + fm.contact_component(rho, k)
    assert total.equals(rho) is True


def test_horizontalize_kills_contact(mech):
    rho = fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    assert fm.horizontalize(rho).is_zero()
    lam = sp.Symbol("q_t") * fm.dx(mech, 1)
    assert fm.horizontalize(lam).equals(lam) is True


def test_dH_dV_decompose_d_on_horizontal(field2):
    # on a horizontal form, d = d_H + d_V
    rng = random.Random(11)
    rho = random_form(field2, 1, 1, rng, contact=0)
    d = fm.exterior_d(rho)
    split = fm.d_H(rho) + fm.d_V(rho)
    assert d.equals(split) is True


def test_dH_squared_zero(field2):
    rng = random.Random(13)
    rho = random_form(field2, 1, 1, rng)
    assert fm.d_H(fm.d_H(rho)).is_zero()


def _mixed_contact_forms(space, seed):
    """Random forms of degree 1 and 2, orders 1 and 2, each a sum of
    random 0-, 1- and 2-contact parts (those the degree and the space
    allow)."""
    rng = random.Random(seed)
    out = []
    for degree in (1, 2):
        for order in (1, 2):
            rho = fm.zero(space, degree, order)
            for contact in range(min(degree, 2) + 1):
                rho = rho + random_form(space, degree, order, rng,
                                        contact=contact)
            out.append(rho)
    return out


@pytest.mark.parametrize("name", ["mech", "mech2", "field2"])
def test_graded_differential_on_mixed_contact_forms(name, request):
    space = request.getfixturevalue(name)
    for rho in _mixed_contact_forms(space, len(name)):
        parts = [fm.contact_component(rho, k) for k in range(rho.degree + 1)]
        dH, dV = fm.d_H(rho), fm.d_V(rho)
        assert fm.exterior_d(rho).equals(dH + dV) is True
        # the definitions p_k d p_k and p_{k+1} d p_k, summed over k
        old_dH = fm.zero(space, rho.degree + 1, rho.order + 1)
        old_dV = fm.zero(space, rho.degree + 1, rho.order + 1)
        for k, part in enumerate(parts):
            d_part = fm.exterior_d(part)
            old_dH = old_dH + fm.contact_component(d_part, k)
            old_dV = old_dV + fm.contact_component(d_part, k + 1)
        assert dH.equals(old_dH) is True
        assert dV.equals(old_dV) is True
        assert (dH.order, dV.order) == (rho.order + 1, rho.order + 1)
        assert fm.d_H(dH).is_zero() is True
        assert fm.d_V(dV).is_zero() is True
        assert (fm.d_H(dV) + fm.d_V(dH)).is_zero() is True


def test_no_discarded_derivatives(field2, monkeypatch):
    slots = [field2.symbol(c) for c in enumerate_coordinates(field2, 1)]
    lam = symexpr.opaque("L", *slots) * fm.omega0(field2)
    R = vr.residual(fm.exterior_d(lam))
    calls = {"total_derivative": 0, "partial": 0}

    def counting(attr):
        fn = getattr(symexpr, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return counted

    for attr in calls:
        monkeypatch.setattr(symexpr, attr, counting(attr))
    # L omega0 holds every dx^i, so d takes no total derivative
    assert fm.exterior_d(lam).is_zero() is False
    assert calls["total_derivative"] == 0 and calls["partial"] > 0
    # R is purely 1-contact, so d_H R takes no fibre partial
    calls.update(total_derivative=0, partial=0)
    assert fm.d_H(R).is_zero() is False
    assert calls["partial"] == 0 and calls["total_derivative"] > 0


def test_dH_of_function_is_total_derivative(field2):
    f = random_polynomial(field2, 1, random.Random(5))
    df = fm.d_H(fm.scalar_form(field2, f, order=1))
    for i in (1, 2):
        expected = symexpr.total_derivative(field2, f, i)
        assert sp.expand(df.coefficient((Dx(i),)) - expected) == 0


def test_contraction_dual_bases(field2):
    w = fm.omega(field2, 1, J1)
    v = fm.unit_vertical(field2, 1, J1)
    assert fm.contract(v, w).coefficient(()) == 1
    assert fm.contract(v, fm.omega(field2, 2, J1)).is_zero()
    assert fm.contract(v, fm.dx(field2, 1)).is_zero()
    d1 = fm.total_field(field2, 1)
    assert fm.contract(d1, fm.dx(field2, 1)).coefficient(()) == 1
    assert fm.contract(d1, w).is_zero()


def test_contraction_antiderivation_sign(mech2):
    w1, w2 = fm.omega(mech2, 1), fm.omega(mech2, 2)
    v1 = fm.unit_vertical(mech2, 1)
    rho = fm.wedge(w2, w1)
    # i_v1 (w2 ^ w1) = - w2
    assert fm.contract(v1, rho).equals((-1) * w2) is True


def test_is_strongly_contact(mech):
    dt = fm.dx(mech, 1)
    w = fm.omega(mech, 1)
    wt = fm.omega(mech, 1, J1)
    assert fm.is_strongly_contact(fm.wedge(w, wt))
    assert not fm.is_strongly_contact(fm.wedge(w, dt))


def test_hidden_zero_is_unknown(mech):
    q, qt = sp.symbols("q q_t")
    one = sp.sin(q)**2 + sp.cos(q)**2
    hidden = (one - 1) * qt * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    assert hidden.is_zero() is None
    assert hidden.equals(fm.zero(mech, 2)) is None
    assert fm.is_strongly_contact(hidden) is None
    assert repr(hidden) != "Form<0; degree 2, order 1>"
    # a definitely nonzero coefficient decides False despite the unknown one
    other = q * fm.wedge(fm.omega(mech, 1, J1), fm.dx(mech, 1))
    assert (hidden + other).is_zero() is False


def test_form_json_round_trip(field2):
    rng = random.Random(17)
    rho = random_form(field2, 2, 2, rng)
    node = fm.form_to_json(rho)
    back = fm.form_from_json(field2, node)
    assert back.equals(rho) is True
    assert fm.form_to_json(back) == node


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_wedge_associative_random(seed):
    space = JetSpace(("t", "x"), ("v",))
    rng = random.Random(seed)
    a = random_form(space, 1, 1, rng)
    b = random_form(space, 1, 1, rng)
    c = random_form(space, 1, 1, rng)
    left = fm.wedge(fm.wedge(a, b), c)
    right = fm.wedge(a, fm.wedge(b, c))
    assert left.equals(right) is True


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_leibniz_rule_random(seed):
    space = JetSpace(("t",), ("q",))
    rng = random.Random(seed)
    a = random_form(space, 1, 1, rng)
    b = random_form(space, 1, 1, rng)
    lhs = fm.exterior_d(fm.wedge(a, b))
    rhs = fm.wedge(fm.exterior_d(a), fm.lift(b, b.order + 1)) \
        - fm.wedge(fm.lift(a, a.order + 1), fm.exterior_d(b))
    assert lhs.equals(rhs) is True


def test_degree_and_order_validation(mech):
    with pytest.raises(ValueError):
        Form(mech, 1, {(Dx(1), Dx(1)): sp.Integer(1)})
    with pytest.raises(ValueError, match="atom count"):
        Form(mech, 1, {(Dx(1), Dx(1)): sp.Integer(0)})
    with pytest.raises(ValueError):
        Form(mech, 1, {(Dx(1),): sp.Symbol("q_t")}, order=0)


@pytest.mark.parametrize("checked", [False, True])
def test_order_and_atoms_validated_on_both_paths(mech, checked):
    qt = sp.Symbol("q_t")
    with pytest.raises(ValueError, match="below minimal order"):
        Form(mech, 1, {(Dx(1),): qt}, order=0, _checked=checked)
    with pytest.raises(ValueError, match="below minimal order"):
        Form(mech, 1, {(Omega(1, MultiIndex((1,))),): sp.Integer(1)},
             order=1, _checked=checked)
    with pytest.raises(ValueError, match="atom outside space"):
        Form(mech, 1, {(Dx(2),): sp.Integer(1)}, _checked=checked)
    assert Form(mech, 1, {(Dx(1),): qt}, _checked=checked).order == 1


def _summed_one_by_one(products):
    """The coefficients of sum sign * f1 * f2 * ... over (atoms, factors),
    each summand added to its running total as it comes; the reference
    for the builders, which add a coefficient's summands at once."""
    terms = {}
    for atoms, factors in products:
        srt = fm._sort_atoms(atoms)
        if srt is None:
            continue
        coeff = srt[1] * factors[0]
        for f in factors[1:]:
            coeff = coeff * f
        terms[srt[0]] = terms.get(srt[0], 0) + coeff
    return {atoms: sp.srepr(c) for atoms, c in terms.items() if c != 0}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_sums_match_term_by_term_reference(seed):
    space = JetSpace(("t", "x"), ("v",))
    t, v = sp.symbols("t v")
    rng = random.Random(seed)
    a, b = ((t + v) * random_form(space, 2, 1, rng) for _ in range(2))
    c = random_form(space, 1, 1, rng)
    a_items, b_items = ([(atoms, (coeff,)) for atoms, coeff in f.terms.items()]
                        for f in (a, b))
    minus_b = [(atoms, (sp.S.NegativeOne * coeff,))
               for atoms, coeff in b.terms.items()]
    wedge = [(atoms_a + atoms_c, (ca, cc)) for atoms_a, ca in a.terms.items()
             for atoms_c, cc in c.terms.items()]
    for got, products in ((a + b, a_items + b_items),
                          (a - b, a_items + minus_b), (fm.wedge(a, c), wedge)):
        assert {atoms: sp.srepr(coeff) for atoms, coeff in got.terms.items()
                } == _summed_one_by_one(products)
