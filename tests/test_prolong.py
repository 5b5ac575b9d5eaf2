import pytest
import sympy as sp

from varseq import forms as fm
from varseq import prolong as pr
from varseq import symexpr, variational as vr
from varseq.jet_space import JetSpace, MultiIndex, enumerate_coordinates

J1 = MultiIndex((1,))
J2 = MultiIndex((1, 1))


@pytest.fixture
def free_particle(mech):
    qt = sp.Symbol("q_t")
    return qt**2 / 2 * fm.dx(mech, 1)


def test_prolong_vertical_shift(mech):
    X = pr.ProjectableVectorField(mech, {}, {1: sp.Integer(1)})
    Z = pr.prolong(X, 2)
    assert Z.component(1, MultiIndex()) == 1
    assert Z.component(1, J1) == 0
    assert Z.component(1, J2) == 0


def test_prolong_scaling_field(mech):
    q, qt, qtt = sp.symbols("q q_t q_tt")
    X = pr.ProjectableVectorField(mech, {}, {1: q})
    Z = pr.prolong(X, 2)
    assert Z.component(1, MultiIndex()) == q
    assert Z.component(1, J1) == qt
    assert Z.component(1, J2) == qtt


def test_prolong_time_translation_split(mech):
    qt, qtt = sp.symbols("q_t q_tt")
    X = pr.ProjectableVectorField(mech, {1: sp.Integer(1)}, {})
    Z = pr.prolong(X, 2)
    assert Z.component(1, J1) == 0
    ZH, ZV = pr.split_HV(Z)
    assert ZH.base[1] == 1
    assert ZV.vertical[(1, MultiIndex())] == -qt
    assert ZV.vertical[(1, J1)] == -qtt


def _count_partials(monkeypatch):
    """Count the symexpr.partial calls made from here on."""
    calls = [0]
    partial = symexpr.partial

    def counted(*args, **kwargs):
        calls[0] += 1
        return partial(*args, **kwargs)

    monkeypatch.setattr(symexpr, "partial", counted)
    return calls


def test_prolong_classical_formula_field_theory(field2, monkeypatch):
    # oracle: the classical recursion Xi^s_{Ji} = d_i Xi^s_J
    # - y^s_{Jl} dxi^l/dx^i, to second order
    t, x = field2.base_symbol(1), field2.base_symbol(2)
    v = field2.fibre_symbol(1)
    xi = {1: t * x}
    X = pr.ProjectableVectorField(field2, xi, {1: v**2, 2: v})
    calls = _count_partials(monkeypatch)
    Z = pr.prolong(X, 2)
    # the characteristic recursion takes no base partials of xi
    assert calls[0] == 0
    expected = {}
    for s in (1, 2):
        expected[(s, MultiIndex())] = X.Xi[s]
        for J in (MultiIndex(), J1, MultiIndex((2,))):
            for i in (1, 2):
                shift = sum(field2.fibre_symbol(s, J.append(l))
                            * sp.diff(e, (t, x)[i - 1]) for l, e in xi.items())
                expected.setdefault((s, J.append(i)), symexpr.total_derivative(
                    field2, expected[(s, J)], i) - shift)
    assert len(expected) == 12
    for (s, J), e in expected.items():
        assert sp.expand(Z.component(s, J) - e) == 0


def test_lie_derivative_of_symmetry_vanishes(mech, free_particle):
    X = pr.ProjectableVectorField(mech, {}, {1: sp.Integer(1)})
    assert pr.lie_derivative(X, free_particle).is_zero()


def test_lie_derivative_scaling_on_contact_form(mech):
    q = sp.Symbol("q")
    X = pr.ProjectableVectorField(mech, {}, {1: q})
    w = fm.omega(mech, 1)
    Lw = pr.lie_derivative(X, w)
    assert Lw.equals(fm.lift(w, Lw.order)) is True


def test_noether_energy_current(mech, free_particle):
    qt = sp.Symbol("q_t")
    theta = vr.cartan_form(free_particle)
    X = pr.ProjectableVectorField(mech, {1: sp.Integer(1)}, {})
    current, _ = pr.noether_current(theta, X)
    assert current.coefficient(()) == -qt**2 / 2


def test_noether_rejects_non_lepage(mech, free_particle):
    X = pr.ProjectableVectorField(mech, {1: sp.Integer(1)}, {})
    with pytest.raises(ValueError):
        pr.noether_current(free_particle, X)


def test_first_variation_split_sums_to_lie_derivative(mech, free_particle):
    q = sp.Symbol("q")
    X = pr.ProjectableVectorField(mech, {}, {1: q})
    el, boundary, current = pr.first_variation_split(free_particle, X)
    total = el + boundary
    L = pr.lie_derivative(X, free_particle)
    assert fm.horizontalize(L).equals(total) is True
    assert fm.d_H(current).equals(boundary) is True


def test_first_variation_takes_only_p1_of_d_theta(field2, monkeypatch):
    slots = [field2.symbol(c) for c in enumerate_coordinates(field2, 1)]
    lam = symexpr.opaque("L", *slots) * fm.omega0(field2)
    X = pr.ProjectableVectorField(field2, {}, {1: sp.Symbol("v")})
    theta = vr.cartan_form(lam)
    V = pr.adapted_field(pr.prolong(X, theta.order + 1))
    full = fm.horizontalize(fm.contract(V, fm.exterior_d(theta)))
    calls = _count_partials(monkeypatch)
    vr.cartan_form(lam)
    pr.prolong(X, theta.order + 1)
    setup, calls[0] = calls[0], 0
    el_term, boundary, current = pr.first_variation_split(lam, X)
    # d theta takes 26 fibre partials, 20 of them on 1-contact terms;
    # p_1 d theta takes the 6 of d_V(L omega0)
    assert calls[0] - setup == 6
    assert el_term.equals(full) is True
    assert fm.d_H(current).equals(boundary) is True


def test_prolong_of_vertical_field_takes_no_base_partials(field2,
                                                          monkeypatch):
    v, w = field2.fibre_symbol(1), field2.fibre_symbol(2)
    Xi = {1: v * w, 2: field2.base_symbol(1) * v}
    X = pr.ProjectableVectorField(field2, {}, Xi)
    calls = _count_partials(monkeypatch)
    Z = pr.prolong(X, 2)
    assert calls[0] == 0
    for sigma, e in Xi.items():
        for J in (MultiIndex(), J1, MultiIndex((2,)), J2,
                  MultiIndex((1, 2)), MultiIndex((2, 2))):
            assert Z.component(sigma, J) \
                == symexpr.total_derivative_multi(field2, e, J)


def test_symmetry_check(mech, free_particle):
    shift = pr.ProjectableVectorField(mech, {}, {1: sp.Integer(1)})
    scale = pr.ProjectableVectorField(mech, {}, {1: sp.Symbol("q")})
    eps = vr.euler_lagrange(free_particle).form
    assert pr.symmetry_check(shift, eps) is True
    assert pr.symmetry_check(scale, eps) is False


def test_krbek_identity_vertical(mech):
    t, q, qt, qtt = sp.symbols("t q q_t q_tt")
    A = symexpr.opaque("A", t, q, qt)
    rho = A * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    X = pr.ProjectableVectorField(mech, {}, {1: q**2})
    res = pr.krbek_identity_check(X, rho, 1)
    assert fm.horizontalize(res).equals(
        fm.horizontalize(pr.lie_derivative(X, rho))) is True


def test_higher_lie_identity(mech):
    t, q, qt, qtt = sp.symbols("t q q_t q_tt")
    A = symexpr.opaque("A", t, q, qt, qtt)
    rho = A * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    X = pr.ProjectableVectorField(mech, {}, {1: q})
    res = pr.higher_lie_identity_check(X, rho)
    assert res.is_zero()


def test_nbh_current_free_particle(mech, free_particle):
    qt, qtt = sp.symbols("q_t q_tt")
    eps = vr.euler_lagrange(free_particle).form
    X = pr.ProjectableVectorField(mech, {}, {1: sp.Integer(1)})
    current, multiples = pr.nbh_current(X, eps)
    assert current.coefficient(()) == qt
    assert multiples[1] == -1


def test_nbh_current_falling_body_boost(mech):
    t, qtt = sp.symbols("t q_tt")
    m, g = sp.Rational(3, 2), sp.Rational(7, 4)
    E = -m * qtt - m * g
    eps = E * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    X = pr.ProjectableVectorField(mech, {}, {1: t})
    current, multiples = pr.nbh_current(X, eps)
    E_sigma = eps.coefficient((fm.Omega(1), fm.Dx(1)))
    rhs = multiples[1] * E_sigma * fm.omega0(mech)
    assert fm.d_H(current).equals(rhs) is True


def test_nbh_current_falling_body_time_translation(mech):
    # xi = 1: the multiple is -Q = q_t, not read off Xi
    qt, qtt = sp.symbols("q_t q_tt")
    m, g = sp.Rational(3, 2), sp.Rational(7, 4)
    eps = (-m * qtt - m * g) * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    X = pr.ProjectableVectorField(mech, {1: sp.Integer(1)}, {})
    current, multiples = pr.nbh_current(X, eps)
    assert multiples == {1: qt}
    E_sigma = eps.coefficient((fm.Omega(1), fm.Dx(1)))
    rhs = multiples[1] * E_sigma * fm.omega0(mech)
    assert fm.d_H(current).equals(rhs) is True


def test_nbh_rejects_non_variational(mech):
    qt, qtt = sp.symbols("q_t q_tt")
    eps = (qtt + qt) * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    X = pr.ProjectableVectorField(mech, {}, {1: sp.Integer(1)})
    with pytest.raises(ValueError):
        pr.nbh_current(X, eps)


def test_generalized_field_requires_flag(mech):
    qt = sp.Symbol("q_t")
    with pytest.raises(ValueError):
        pr.ProjectableVectorField(mech, {}, {1: qt})
    X = pr.ProjectableVectorField(mech, {}, {1: qt}, generalized=True)
    assert pr.prolong(X, 1).component(1, J1) == sp.Symbol("q_tt")
