import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varseq import forms as fm
from varseq import probe, symexpr, variational as vr
from varseq.forms import Form, Omega, Dx
from varseq.jet_space import JetSpace, MultiIndex, enumerate_coordinates

from conftest import Budget, random_polynomial
from test_forms import random_form

J1 = MultiIndex((1,))
J2 = MultiIndex((1, 1))
J3 = MultiIndex((1, 1, 1))
LEVELS = (MultiIndex(), J1, J2, J3)


def dtd(space, e):
    return symexpr.total_derivative(space, e, 1)


def test_euler_lagrange_harmonic_oscillator(mech):
    m, k = sp.symbols("m k")
    q, qt, qtt = sp.symbols("q q_t q_tt")
    lam = (m / 2 * qt**2 - k / 2 * q**2) * fm.dx(mech, 1)
    el = vr.euler_lagrange(lam)
    # E = -k q - m qdd, as omega^q ^ dt coefficient with our orientation
    coeff = el.form.coefficient((Dx(1), Omega(1, MultiIndex())))
    assert sp.expand(coeff - (k * q + m * qtt)) == 0


def test_euler_lagrange_with_named_constant(mech):
    qt, qtt = sp.symbols("q_t q_tt")
    el = vr.euler_lagrange(sp.exp(1) * qt**2 * fm.dx(mech, 1))
    coeff = el.form.coefficient((Dx(1), Omega(1, MultiIndex())))
    assert coeff == 2 * sp.E * qtt


def test_euler_lagrange_wave_equation(field2):
    v = sp.Symbol("v")
    vt, vx = sp.Symbol("v_t"), sp.Symbol("v_x")
    vtt, vxx = sp.Symbol("v_tt"), sp.Symbol("v_xx")
    lam = sp.Rational(1, 2) * (vt**2 - vx**2) * fm.omega0(field2)
    el = vr.euler_lagrange(lam)
    coeff = el.form.coefficient((Dx(1), Dx(2), Omega(1, MultiIndex())))
    assert sp.expand(coeff - (vxx - vtt)) == 0


def test_euler_lagrange_opaque_is_classical_formula(mech):
    t, q, qt, qtt = sp.symbols("t q q_t q_tt")
    L = symexpr.opaque("L", t, q, qt)
    lam = L * fm.dx(mech, 1)
    el = vr.euler_lagrange(lam)
    expected = sp.diff(L, q) - dtd(mech, sp.diff(L, qt))
    coeff = el.form.coefficient((Dx(1), Omega(1, MultiIndex())))
    assert sp.expand(coeff + expected) == 0 or sp.expand(coeff - expected) == 0


def test_integration_by_parts_differentiates_each_slot_once(monkeypatch):
    # EL of an opaque L on (n, m, r) = (2, 2, 2): the slots omega^s_J with
    # 1 <= |J| <= 2 are 5 per fibre coordinate, and each is differentiated
    # once after its children are added in (stripping every slot's J down
    # to the empty index separately takes sum |J| = 8 per coordinate)
    space = JetSpace(("t", "x"), ("u", "v"))
    slots = [space.symbol(c) for c in enumerate_coordinates(space, 2)]
    lam = symexpr.opaque("L", *slots) * fm.omega0(space)
    calls = []
    td_contact = vr._td_contact

    def counted(*args):
        calls.append(args)
        return td_contact(*args)

    monkeypatch.setattr(vr, "_td_contact", counted)
    vr.euler_lagrange(lam)
    assert len(calls) == 10


def _mechanics_contact_source(space, order):
    """rho = sum_j A^j(t, q..j+?) omega_(j) ^ dt with opaque A^j."""
    t = space.base_symbol(1)
    slots = [t] + [space.fibre_symbol(1, J) for J in LEVELS[:order + 1]]
    rho = fm.zero(space, 2, order + 1)
    As = []
    for j in range(order + 1):
        A = symexpr.opaque("A%d" % j, *slots)
        As.append(A)
        rho = rho + A * fm.wedge(fm.omega(space, 1, LEVELS[j]),
                                 fm.dx(space, 1))
    return rho, As


@pytest.mark.parametrize("order", [1, 2, 3])
def test_residual_matches_backsubstitution_oracle(mech, order):
    # independent oracle: with rho = sum A^j w_(j) ^ dt and
    # R = sum C^j w_(j), the identity p1 rho = I(rho) + p1 dR forces the
    # cascade C^{r-1} = -A^r, C^{j-1} = -A^j - d_t C^j.
    rho, As = _mechanics_contact_source(mech, order)
    R = vr.residual(rho)
    C = [sp.Integer(0)] * (order + 1)  # C^order stays zero
    for j in range(order, 0, -1):
        C[j - 1] = sp.expand(-As[j] - dtd(mech, C[j]))
    expected = fm.zero(mech, 1, R.order)
    for j in range(order):
        expected = expected + C[j] * fm.omega(mech, 1, LEVELS[j])
    assert R.equals(expected) is True


def _field2_mixed_slot_fixtures(space):
    """A 1-contact and a 2-contact field-theory form, each sure to hold
    the mixed slot omega^v_{tx}, on which stripping the last index of
    J applies d_x before d_t."""
    rng = random.Random(59)
    slots = [space.symbol(c) for c in enumerate_coordinates(space, 1)]
    v_tx = Omega(1, MultiIndex((1, 2)))
    A = symexpr.opaque("A", *slots)
    B = symexpr.opaque("B", *slots)
    one = (Form(space, 3, {(v_tx, Dx(1), Dx(2)): A})
           + random_form(space, 3, 3, rng, contact=1))
    two = (Form(space, 4, {(v_tx, Omega(2), Dx(1), Dx(2)): B})
           + random_form(space, 4, 3, rng, contact=2))
    return [one, two]


def test_residual_defining_identity_field_theory(field2):
    rng = random.Random(23)
    fixtures = [random_form(field2, 3, 1, rng, contact=1)]
    fixtures.extend(_field2_mixed_slot_fixtures(field2))
    for rho in fixtures:
        k = rho.degree - field2.n
        I = vr.interior_euler(rho).form
        R = vr.residual(rho)
        lhs = fm.contact_component(rho, k)
        rhs = I + fm.contact_component(fm.exterior_d(R), k)
        assert (lhs - rhs).is_zero()


def test_order_tags_on_mixed_slot_fixtures(field2):
    # JSON output carries the order tag; the goldens pin it only for
    # n = 1 and first-order inputs
    expected = [(5, 4, 6), (5, 4, 6)]
    got = [(vr.interior_euler(rho).form.order, vr.residual(rho).order,
            vr.cartan_form(rho).order)
           for rho in _field2_mixed_slot_fixtures(field2)]
    assert got == expected


def test_interior_euler_idempotent_random(field2):
    rng = random.Random(31)
    for _ in range(3):
        rho = random_form(field2, 3, 1, rng, contact=1)
        I1 = vr.interior_euler(rho).form
        I2 = vr.interior_euler(I1).form
        assert I2.equals(I1) is True


def test_interior_euler_kills_strongly_contact(mech):
    rho = fm.wedge(fm.omega(mech, 1), fm.omega(mech, 1, J1))
    assert vr.interior_euler(rho).form.is_zero()
    assert vr.interior_euler(fm.exterior_d(rho)).form.is_zero()


def test_helmholtz_zero_iff_variational(mech):
    q, qt, qtt = sp.symbols("q q_t q_tt")
    variational = (qtt + q) * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    dissipative = (qtt + qt) * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    assert vr.helmholtz(variational).form.is_zero()
    assert not vr.helmholtz(dissipative).form.is_zero()


def test_cartan_form_degree_one_classical(mech):
    t, q, qt = sp.symbols("t q q_t")
    L = symexpr.opaque("L", t, q, qt)
    lam = L * fm.dx(mech, 1)
    theta = vr.cartan_form(lam)
    expected = lam + sp.diff(L, qt) * fm.omega(mech, 1)
    assert theta.equals(fm.lift(expected, theta.order)) is True
    assert vr.is_lepage(theta) is True


def test_first_order_lagrangian_not_lepage(mech):
    q, qt = sp.symbols("q q_t")
    lam = (qt**2 / 2 - q**2 / 2) * fm.dx(mech, 1)
    assert vr.is_lepage(lam) is False


def test_lepage_equivalent_of_dynamical_form(mech):
    q, qtt = sp.symbols("q q_tt")
    eps = (qtt + q) * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    theta = vr.cartan_form(eps)
    assert vr.is_lepage(theta) is True
    # p_1 of the equivalent reproduces the source form
    assert fm.contact_component(theta, 1).equals(
        fm.lift(eps, theta.order)) is True
    # p_2 d theta is the canonical Helmholtz form
    H = fm.contact_component(fm.exterior_d(theta), 2)
    assert H.equals(fm.lift(vr.helmholtz(eps).form, H.order)) is True


def test_contact_homotopy_tonti_lagrangian(mech):
    q, qtt = sp.symbols("q q_tt")
    eps = -qtt * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    lam = fm.horizontalize(vr.contact_homotopy(eps))
    expected = -sp.Rational(1, 2) * q * qtt * fm.dx(mech, 1)
    assert lam.equals(fm.lift(expected, lam.order)) is True
    # and its EL form recovers eps
    el = vr.euler_lagrange(lam)
    assert el.form.equals(fm.lift(eps, el.form.order)) is True


def test_homotopy_formula_on_random_forms(mech):
    rng = random.Random(41)
    for _ in range(5):
        rho = random_form(mech, 1, 1, rng)
        lhs = fm.lift(rho, rho.order + 1)
        A_drho = vr.contact_homotopy(fm.exterior_d(rho))
        dA_rho = fm.exterior_d(vr.contact_homotopy(rho))
        rest = vr.base_restriction(rho)
        total = A_drho + dA_rho + rest
        assert total.equals(lhs) is True


def test_variationally_trivial_lagrangian(mech):
    q, qt = sp.symbols("q q_t")
    lam = fm.d_H(fm.scalar_form(mech, q**2, order=0))
    flag, primitive = vr.is_variationally_trivial(lam)
    assert flag is True
    assert fm.d_H(primitive).equals(fm.lift(lam, primitive.order + 1)) is True
    flag, _ = vr.is_variationally_trivial(qt**2 * fm.dx(mech, 1))
    assert flag is False


_T, _X, _Q, _U = sp.symbols("t x q u")
_MECH = JetSpace(("t",), ("q",))
_PLANE = JetSpace(("t", "x"), ("u",))


@pytest.mark.parametrize("lam", [
    (sp.Symbol("q_t") + sp.sin(_T)) * fm.dx(_MECH, 1),
    fm.d_H((_U + sp.exp(_X) * _T**2) * fm.omega_i(_PLANE, 1)),
    fm.d_H(fm.scalar_form(_MECH, _Q**2 * _T + _T**3 / 3, order=0)),
    fm.d_H((_U * _X + _T**2 * _X) * fm.omega_i(_PLANE, 1)
           + (_U * _T + _X**3 + _T) * fm.omega_i(_PLANE, 2)),
], ids=["trig-base", "exp-base-2d", "poly-base-1d", "poly-base-2d"])
def test_trivial_lagrangian_primitive_from_homotopy(lam):
    # h(A theta) + P(chi_0^* lambda), with the base part integrated in x^1
    flag, primitive = vr.is_variationally_trivial(lam)
    assert flag is True
    assert fm.d_H(primitive).equals(lam) is True


@pytest.mark.parametrize("base_part", [
    sp.exp(-_T**2) * sp.sin(_T)**3,   # integral left unevaluated
    1 / _T**2,                        # diverges at t = 0
    sp.exp(sp.Symbol("a") * _T),      # primitive depends on a = 0 or not
], ids=["no-closed-form", "singular-at-0", "conditional"])
def test_trivial_lagrangian_base_part_refused(base_part):
    lam = (sp.Symbol("q_t") + base_part) * fm.dx(_MECH, 1)
    with Budget(5), pytest.raises(vr.NonPolynomialError, match="base part"):
        vr.is_variationally_trivial(lam)


@pytest.mark.parametrize("f", [
    -6 * _T, 3 * _X**2, 5 - 2 * _T**2, 3 * _T * _X**2 / 2,
    sp.Symbol("a") * _T**3 - _X, 2 * _T * sp.sin(_X), sp.Integer(7),
])
def test_base_primitive_matches_manualintegrate(f):
    # polynomials in t are integrated as such, with the same primitive
    from sympy.integrals.manualintegrate import manualintegrate
    G = manualintegrate(f, _T)
    got = vr._base_primitive(f * fm.omega0(_PLANE))
    assert sp.srepr(sp.expand(got.coefficient((Dx(2),)))) \
        == sp.srepr(sp.expand(G - G.subs(_T, 0)))


@pytest.mark.parametrize("coeff", [
    "1/q", "sqrt(q)", "q**(1/3)", "sin(q)", "exp(q)", "log(q)", "Abs(q)",
    "q**t", "a**q", "F(q)", "sqrt(q**2)", "q_t/(q**2+1)", "1/(q+t)",
    "sin(q)**2+cos(q)**2", "Derivative(F(q), q)", "q*Derivative(F(q, t), t)",
    "q**a",
])
def test_contact_homotopy_refuses_non_polynomial_fibre_dependence(coeff):
    expr = sp.sympify(coeff, locals={"F": sp.Function("F")})
    rho = expr * fm.wedge(fm.omega(_MECH, 1), fm.dx(_MECH, 1))
    with pytest.raises(vr.NonPolynomialError, match="polynomial fibre"):
        vr.contact_homotopy(rho)


_SCALED_SPACES = (JetSpace(("t",), ("q",)), JetSpace(("t",), ("a", "b")),
                  JetSpace(("t", "x"), ("v", "w")))


@st.composite
def _fibre_scaling_cases(draw):
    """A polynomial in the J^1 coordinates, a parameter and base-only
    factors (sin(t), F(t), pi), possibly unexpanded, and a kc."""
    space = draw(st.sampled_from(_SCALED_SPACES))
    t = space.base_symbol(1)
    atoms = ([space.symbol(c) for c in enumerate_coordinates(space, 1)]
             + [sp.Symbol("k"), sp.sin(t), sp.Function("F")(t), sp.pi])
    factor = st.builds(lambda c, xs: c * sp.Mul(*xs), st.integers(-3, 3),
                       st.lists(st.sampled_from(atoms), max_size=3))
    coeff = sp.Add(*draw(st.lists(factor, min_size=1, max_size=4)))
    if draw(st.booleans()):
        coeff *= draw(st.sampled_from(atoms)) + draw(factor)
    return space, coeff, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(_fibre_scaling_cases())
def test_fibre_scale_integral_matches_integrate(case):
    space, coeff, kc = case
    u = sp.Dummy("u")
    scaled = coeff.xreplace({s: u * s for s in coeff.free_symbols
                             if (c := space.coordinate_of(s)) is not None
                             and c.kind == "fibre"})
    expected = sp.integrate(u ** (kc - 1) * scaled, (u, 0, 1))
    got = vr._fibre_scale_integral(space, coeff, kc)
    assert symexpr.equal(got, expected) is True


def test_contact_homotopy_accepts_non_polynomial_base_dependence():
    rho = _Q * sp.sin(_T) * fm.wedge(fm.omega(_MECH, 1), fm.dx(_MECH, 1))
    expected = _Q**2 * sp.sin(_T) / 2 * fm.dx(_MECH, 1)
    assert vr.contact_homotopy(rho).equals(expected) is True


def test_classes_equal_modulo_contact(mech):
    # degree-n classes are forms modulo contact terms; adding a contact
    # term does not change the class, adding a horizontal term does
    q, qt = sp.symbols("q q_t")
    lam1 = qt**2 / 2 * fm.dx(mech, 1)
    lam2 = lam1 + q * fm.omega(mech, 1)
    assert vr.classes_equal(lam1, lam2) is True
    assert vr.classes_equal(lam1, 2 * lam1) is False
    # d_H-exact differences change the class but not the EL form
    lam3 = lam1 + fm.d_H(fm.scalar_form(mech, q * qt, order=1))
    assert vr.classes_equal(lam1, lam3) is False
    el1, el3 = vr.euler_lagrange(lam1), vr.euler_lagrange(lam3)
    assert el1.form.equals(el3.form) is True


def test_source_canonicalize_report(mech2):
    # 2-contact source form generated by undifferentiated omegas; the
    # decomposition identities of the canonicalization proposition hold
    t = mech2.base_symbol(1)
    slots = [t] + [mech2.fibre_symbol(s, J)
                   for J in (MultiIndex(), J1) for s in (1, 2)]
    A = symexpr.opaque("A", *slots)
    rho = A * fm.wedge(fm.wedge(fm.omega(mech2, 1), fm.omega(mech2, 2)),
                       fm.dx(mech2, 1))
    report = vr.source_canonicalize(rho)
    assert report.identity_decomposition.is_zero()
    assert report.identity_residual.is_zero()
    assert report.identity_iterated.is_zero()


def test_reduced_helmholtz_identity(mech2):
    t = mech2.base_symbol(1)
    slots = [t]
    for J in (MultiIndex(), J1, J2):
        for s in (1, 2):
            slots.append(mech2.fibre_symbol(s, J))
    eps = fm.zero(mech2, 2, 2)
    for s in (1, 2):
        E = symexpr.opaque("E%d" % s, *slots)
        eps = eps + E * fm.wedge(fm.omega(mech2, s), fm.dx(mech2, 1))
    Hbar, eta = vr.reduced_helmholtz_mechanics(eps)
    H = vr.helmholtz(eps)
    p2deta = fm.contact_component(fm.exterior_d(eta), 2)
    N = max(Hbar.form.order, H.form.order, p2deta.order)
    diff = fm.lift(Hbar.form, N) - fm.lift(H.form, N) - fm.lift(p2deta, N)
    assert diff.is_zero()


def test_reduced_helmholtz_of_euler_lagrange_form(mech):
    # the EL form's order tag (3) exceeds its minimal order (2)
    qt, qtt = sp.symbols("q_t q_tt")
    eps = vr.euler_lagrange(qt**2 * fm.dx(mech, 1))
    assert eps.form.minimal_order() == 2 < eps.form.order
    Hbar, _ = vr.reduced_helmholtz_mechanics(eps)
    assert Hbar.is_zero() is True
    high = vr.euler_lagrange(qtt**2 * fm.dx(mech, 1))
    assert high.form.minimal_order() == 4
    with pytest.raises(ValueError, match="second-order dynamical form"):
        vr.reduced_helmholtz_mechanics(high)


def test_residual_check_catches_a_wrong_residual(mech, monkeypatch):
    ibp = vr._integrate_by_parts

    def doubled(rho, with_residual):
        k, mu, I, R = ibp(rho, with_residual)
        return k, mu, I, None if R is None else 2 * R

    monkeypatch.setattr(vr, "_integrate_by_parts", doubled)
    rho, _ = _mechanics_contact_source(mech, 2)
    with pytest.raises(AssertionError, match=r"\(internal error\)"):
        vr.residual(rho)
    t, q, qt = sp.symbols("t q q_t")
    lam = symexpr.opaque("L", t, q, qt) * fm.dx(mech, 1)
    with pytest.raises(AssertionError, match=r"\(internal error\)"):
        vr.cartan_form(lam)


def _doubled_base_primitive(monkeypatch):
    base_primitive = vr._base_primitive
    monkeypatch.setattr(vr, "_base_primitive",
                        lambda rho: 2 * base_primitive(rho))


def test_primitive_check_probes_an_unknown_verdict(monkeypatch):
    # d_H(primitive) = lambda is undecided exactly for sin(t)**2; the
    # seeded probe finds the doubled primitive wrong and names its witness
    _doubled_base_primitive(monkeypatch)
    lam = sp.sin(_T)**2 * fm.dx(_MECH, 1)
    with pytest.raises(AssertionError, match=r"primitive verification .*"
                       r"probe unequal, seed 0, witness \{t: "):
        vr.is_variationally_trivial(lam)


def test_primitive_check_exact_false_message(monkeypatch):
    _doubled_base_primitive(monkeypatch)
    with pytest.raises(AssertionError) as err:
        vr.is_variationally_trivial(_T**2 * fm.dx(_MECH, 1))
    assert str(err.value) == "primitive verification failed (internal error)"


def test_source_primitive_check_catches_a_wrong_homotopy(mech, monkeypatch):
    homotopy = vr.contact_homotopy
    monkeypatch.setattr(vr, "contact_homotopy", lambda rho: 2 * homotopy(rho))
    eps = -sp.Symbol("q_tt") * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    with pytest.raises(AssertionError) as err:
        vr.is_variationally_trivial(eps)
    assert str(err.value) == "primitive verification failed (internal error)"


def test_reduced_helmholtz_check_catches_a_wrong_helmholtz(mech, monkeypatch):
    q, qt = sp.symbols("q q_t")
    eps = q * qt * fm.wedge(fm.omega(mech, 1), fm.dx(mech, 1))
    assert vr.reduced_helmholtz_mechanics(eps)[0].is_zero() is False
    helmholtz = vr.helmholtz
    monkeypatch.setattr(vr, "helmholtz", lambda e: vr.SourceForm(
        2 * helmholtz(e).form, 2))
    with pytest.raises(AssertionError) as err:
        vr.reduced_helmholtz_mechanics(eps)
    assert str(err.value) == "reduced Helmholtz relation failed (internal error)"


def test_self_check_cannot_probe_opaque_atoms(mech, monkeypatch):
    # an unknown verdict on a residue the probe cannot evaluate is an
    # internal error, not the probe's ValueError (which the CLI reports
    # as a refused input); the doubled R leaves the opaque L in it
    ibp = vr._integrate_by_parts

    def doubled(rho, with_residual):
        k, mu, I, R = ibp(rho, with_residual)
        return k, mu, I, None if R is None else 2 * R

    monkeypatch.setattr(vr, "_integrate_by_parts", doubled)
    monkeypatch.setattr(Form, "equals", lambda self, other: None)
    t, q, qt = sp.symbols("t q q_t")
    lam = symexpr.opaque("L", t, q, qt) * fm.dx(mech, 1)
    with pytest.raises(AssertionError, match=r"residual defining identity "
                       r"failed \(internal error\) \(probe unknown, seed 0, "
                       r"witness \{'__error__': .opaque atoms"):
        vr.cartan_form(lam)


@pytest.mark.parametrize("base_part", [
    sp.sin(_T)**2, sp.cos(_T)**3, sp.tan(_T), sp.Symbol("a") * sp.sin(_T)**2,
    sp.Symbol("a", positive=True) * sp.sin(_T)**2,
], ids=["sin2", "cos3", "tan", "a-sin2", "positive-a-sin2"])
def test_true_primitive_with_unknown_exact_check_passes_the_probe(base_part):
    lam = base_part * fm.dx(_MECH, 1)
    flag, primitive = vr.is_variationally_trivial(lam)
    assert flag is True
    assert fm.d_H(primitive).equals(lam) is None
    params = tuple(base_part.free_symbols - {_T})
    verdict = probe.forms_equal_probabilistic(
        fm.d_H(primitive), lam, probe.ProbeConfig(seed=1), params=params)
    assert verdict.status == "equal"


def test_perturbed_cartan_form_not_lepage_field_theory(field2):
    slots = [field2.symbol(c) for c in enumerate_coordinates(field2, 1)]
    lam = symexpr.opaque("L", *slots) * fm.omega0(field2)
    theta = vr.cartan_form(lam)
    assert vr.is_lepage(theta) is True
    # p_1 d of the perturbation holds omega^v_t, which I does not keep
    v_t = sp.Symbol("v_t")
    bump = v_t * fm.wedge(fm.omega(field2, 1), fm.dx(field2, 2))
    assert vr.is_lepage(theta + bump) is False


def _lie_total(rho, i):
    d = fm.total_field(rho.space, i)
    return fm.contract(d, fm.exterior_d(rho)) \
        + fm.exterior_d(fm.contract(d, rho))


def _interior_euler_raw(rho):
    """Independent oracle: the defining sum (1/k) omega^sigma ^
    sum_J (-1)^|J| d_J (d/dy^sigma_J hook p_k rho), with d_J realized as
    Cartan-formula Lie derivatives along the total fields."""
    from varseq.jet_space import multiindices
    space = rho.space
    k = rho.degree - space.n
    mu = fm.contact_component(rho, k)
    out = fm.zero(space, rho.degree, rho.order)
    for sigma in range(1, space.m + 1):
        inner = fm.zero(space, rho.degree - 1, rho.order)
        for p in range(rho.order + 1):
            for J in multiindices(space.n, p):
                c = fm.contract(fm.unit_vertical(space, sigma, J), mu)
                for i in J.entries:
                    c = _lie_total(c, i)
                inner = inner + (-1) ** p * c
        out = out + fm.wedge(fm.omega(space, sigma), inner)
    return out * sp.Rational(1, k)


def test_interior_euler_matches_raw_definition(mech, field2):
    rng = random.Random(47)
    fixtures = [random_form(mech, 2, 1, rng, contact=1),
                random_form(mech, 2, 2, rng, contact=2),
                random_form(field2, 3, 1, rng, contact=1)]
    rho_op, _ = _mechanics_contact_source(mech, 2)
    fixtures.append(rho_op)
    fixtures.extend(_field2_mixed_slot_fixtures(field2))
    for rho in fixtures:
        raw = _interior_euler_raw(rho)
        assert raw.equals(vr.interior_euler(rho).form) is True


def test_helmholtz_rejects_wrong_degree(mech):
    lam = sp.Symbol("q_t") * fm.dx(mech, 1)
    with pytest.raises(ValueError):
        vr.helmholtz(lam)


def test_euler_lagrange_rejects_wrong_degree(mech):
    with pytest.raises(ValueError):
        vr.euler_lagrange(fm.omega(mech, 1))


def test_euler_lagrange_of_a_hidden_zero_contact_term(mech):
    # the contact coefficient is 0 but undecided exactly; E(lambda)
    # depends only on h(lambda), so E is that of q_t**2 d(t)
    q, qt = sp.symbols("q q_t")
    horizontal = qt**2 * fm.dx(mech, 1)
    lam = horizontal + (sp.sin(q)**2 + sp.cos(q)**2 - 1) * fm.omega(mech, 1)
    assert fm.contact_component(lam, 0).equals(lam) is None
    el = vr.euler_lagrange(lam)
    assert el.form.equals(vr.euler_lagrange(horizontal).form) is True
