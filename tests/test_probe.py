import pytest
import sympy as sp

from varseq import forms as fm
from varseq import probe, symexpr
from varseq.jet_space import JetSpace


def test_random_assignment_deterministic(mech):
    cfg = probe.ProbeConfig(seed=1)
    a1 = probe.random_assignment(mech, 2, cfg)
    a2 = probe.random_assignment(mech, 2, cfg)
    assert a1 == a2


def test_random_assignment_seed_sensitivity(mech):
    a1 = probe.random_assignment(mech, 2, probe.ProbeConfig(seed=1))
    a2 = probe.random_assignment(mech, 2, probe.ProbeConfig(seed=2))
    assert a1 != a2


def test_random_assignment_bounds_and_nonzero(mech):
    cfg = probe.ProbeConfig(seed=3, bound=100)
    for trial in range(5):
        for value in probe.random_assignment(mech, 2, cfg,
                                             trial=trial).values():
            assert value != 0
            assert abs(value.p) <= 100 and value.q <= 100


def test_exprs_equal_true_and_false(mech):
    q, qt = sp.symbols("q q_t")
    cfg = probe.ProbeConfig(seed=0, trials=10)
    assert probe.exprs_equal_probabilistic(
        mech, (q + qt) ** 2, q**2 + 2 * q * qt + qt**2, cfg)
    verdict = probe.exprs_equal_probabilistic(mech, q * qt, q + qt, cfg)
    assert verdict.status == "unequal"
    assert verdict.witness is not None and "__value__" in verdict.witness


def test_forms_unequal_carries_witness(mech):
    qt = sp.Symbol("q_t")
    cfg = probe.ProbeConfig(seed=0, trials=5)
    a = qt**2 / 2 * fm.dx(mech, 1)
    b = a + sp.Symbol("q") * fm.dx(mech, 1)
    verdict = probe.forms_equal_probabilistic(a, b, cfg)
    assert verdict.status == "unequal"
    assert "__atoms__" in verdict.witness


def test_sqrt_identity_with_accept_predicate(mech):
    # sqrt(q^2) == |q|: equal on the accepted half-space q > 0
    q = sp.Symbol("q")
    cfg = probe.ProbeConfig(seed=5, trials=10)
    accept = lambda a: a[q] > 0
    verdict = probe.exprs_equal_probabilistic(mech, sp.sqrt(q**2), q, cfg,
                                              order=0, accept=accept)
    assert verdict.status == "equal"
    verdict = probe.exprs_equal_probabilistic(mech, sp.sqrt(q**2), q, cfg,
                                              order=0)
    assert verdict.status == "unequal"


def test_accept_predicate_exhaustion_is_unknown(mech):
    q = sp.Symbol("q")
    cfg = probe.ProbeConfig(seed=1, trials=2)
    verdict = probe.exprs_equal_probabilistic(
        mech, q, q + 1, cfg, order=0, accept=lambda a: False)
    assert verdict.status == "unknown"


def test_params_probed(mech):
    m = sp.Symbol("m")
    qt = sp.Symbol("q_t")
    cfg = probe.ProbeConfig(seed=2, trials=5)
    verdict = probe.exprs_equal_probabilistic(
        mech, m * qt, qt * m, cfg, params=(m,))
    assert verdict.status == "equal"


def test_config_validation():
    with pytest.raises(ValueError):
        probe.ProbeConfig(trials=0)
    with pytest.raises(ValueError):
        probe.ProbeConfig(bound=0)


_q = sp.Symbol("q")


@pytest.mark.parametrize("lhs, rhs, bound, status", [
    (1 / (_q + 1) + 1 / (_q - 1), 2 * _q / (_q**2 - 1), 1, "unknown"),
    (1 / (_q + 1) + 1 / (_q - 1), 2 * _q / (_q**2 - 1), 3, "equal"),
    (_q / (_q - 1), 1 + 1 / (_q - 1), 1, "equal"),  # defined at q = -1
])
def test_draws_at_poles_are_redrawn(mech, lhs, rhs, bound, status):
    # a draw on a pole is undefined, never an "unequal" with a nan witness
    cfg = probe.ProbeConfig(seed=0, trials=10, bound=bound)
    verdict = probe.exprs_equal_probabilistic(mech, lhs, rhs, cfg, order=0)
    assert verdict.status == status and verdict.witness is None


def test_missing_value_and_opaque_atom_still_raise(mech):
    cfg = probe.ProbeConfig(seed=0, trials=3)
    with pytest.raises(ValueError, match="missing assignment") as err:
        probe.exprs_equal_probabilistic(mech, _q * sp.Symbol("s"), 1, cfg)
    assert not isinstance(err.value, symexpr.UndefinedAt)
    L = symexpr.opaque("L", _q)
    with pytest.raises(ValueError, match="without registered instantiation"):
        probe.exprs_equal_probabilistic(mech, L, 1, cfg)


def test_probe_compiles_each_difference_once(mech, monkeypatch):
    compiled = []
    compile_ = symexpr._compile

    def counting(e, instantiations=None):
        compiled.append(e)
        return compile_(e, instantiations)

    monkeypatch.setattr(symexpr, "_compile", counting)
    qt = sp.Symbol("q_t")
    cfg = probe.ProbeConfig(seed=4, trials=20)
    assert probe.exprs_equal_probabilistic(mech, sp.sqrt(_q**2), sp.Abs(_q),
                                           cfg)
    assert len(compiled) == 1
    compiled.clear()
    a = sp.sqrt(_q**2) * fm.dx(mech, 1) + sp.sqrt(qt**2) * fm.omega(mech, 1)
    b = sp.Abs(_q) * fm.dx(mech, 1) + sp.Abs(qt) * fm.omega(mech, 1)
    assert len((a - b).terms) == 2
    assert probe.forms_equal_probabilistic(a, b, cfg)
    assert len(compiled) == 2
    compiled.clear()
    assert probe.forms_equal_probabilistic(a, a, cfg)
    assert compiled == []
