import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varseq import jet_space
from varseq.jet_space import (JetCoordinate, JetSpace, MultiIndex,
                              count_multiindices, enumerate_coordinates,
                              multiindices)


def test_multiindex_requires_sorted_entries():
    with pytest.raises(ValueError):
        MultiIndex((2, 1, 2))
    J = MultiIndex((1, 2, 2))
    assert len(J) == 3
    assert J.order == 3


def test_multiindex_append_and_drop():
    J = MultiIndex((1,))
    K = J.append(2)
    assert K.entries == (1, 2)
    dropped, i = K.drop_last()
    assert dropped.entries == (1,) and i == 2


def test_count_multiindices_matches_enumeration():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3):
            assert count_multiindices(n, k) == len(list(multiindices(n, k)))


def test_multiindices_nondecreasing_unique():
    out = list(multiindices(2, 3))
    assert len(set(out)) == len(out)
    for J in out:
        assert list(J.entries) == sorted(J.entries)


def test_symbol_naming_mechanics():
    space = JetSpace(("t",), ("q",))
    assert space.base_symbol(1) == sp.Symbol("t")
    assert space.fibre_symbol(1) == sp.Symbol("q")
    assert space.fibre_symbol(1, MultiIndex((1,))) == sp.Symbol("q_t")
    assert space.fibre_symbol(1, MultiIndex((1, 1))) == sp.Symbol("q_tt")


def test_symbol_naming_field_theory():
    space = JetSpace(("t", "x"), ("v", "w"))
    assert space.fibre_symbol(1, MultiIndex((1, 2))) == sp.Symbol("v_tx")
    assert space.fibre_symbol(2, MultiIndex((2, 2))) == sp.Symbol("w_xx")


def test_coordinate_of_round_trip():
    for base, fibre in [(("t", "x"), ("v", "w")), (("ab", "c"), ("u",)),
                        (("x", "yz"), ("u", "v")), (("yz", "x", "w"), ("u",))]:
        space = JetSpace(base, fibre)
        coords = enumerate_coordinates(space, 3)
        assert len({space.symbol(c) for c in coords}) == len(coords)
        for coord in coords:
            assert space.coordinate_of(space.symbol(coord)) == coord


def test_coordinate_of_rejects_unknown():
    space = JetSpace(("t",), ("q",))
    assert space.coordinate_of(sp.Symbol("z")) is None
    assert space.coordinate_of(sp.Symbol("q_x")) is None


@pytest.mark.parametrize("name", [
    "u_xt", "u_xxt", "u_txt", "u_", "q_", "t_x", "u_tz", "u__t", "z_t",
])
def test_coordinate_of_reads_only_the_canonical_spelling(name):
    # one name per coordinate: decreasing, empty or unreadable index
    # strings name nothing, so no second symbol aliases a coordinate
    space = JetSpace(("t", "x"), ("u", "q"))
    assert space.coordinate_of(sp.Symbol(name)) is None
    assert space.jet_order(sp.Symbol(name)) == 0


@pytest.mark.parametrize("base", [("t", "tt"), ("tt", "t"), ("x", "ab", "a")])
def test_prefix_base_names_rejected(base):
    with pytest.raises(ValueError, match="is a prefix of base name"):
        JetSpace(base, ("u",))


def test_coordinate_of_ambiguous_names():
    # fibre name containing the base letter still parses correctly
    space = JetSpace(("t",), ("qt",))
    c = space.coordinate_of(sp.Symbol("qt_t"))
    assert c == JetCoordinate("fibre", 1, MultiIndex((1,)))


def test_jet_order():
    space = JetSpace(("t",), ("q",))
    q, qt, qtt = sp.symbols("q q_t q_tt")
    assert space.jet_order(q) == 0
    assert space.jet_order(q * qt) == 1
    assert space.jet_order(qtt + sp.Symbol("m")) == 2
    assert space.jet_order(sp.Integer(5)) == 0


def test_enumerate_coordinates_count():
    space = JetSpace(("t", "x"), ("v",))
    coords = enumerate_coordinates(space, 2)
    # 2 base + 1 fibre * (1 + 2 + 3) multi-indices of order <= 2
    assert len(coords) == 2 + 6


def test_empty_fibre_rejected():
    with pytest.raises(ValueError):
        JetSpace(("t",), ())


# jet_order: the memoized walk against the free_symbols definition

_FIELD = JetSpace(("t", "x"), ("u", "v"))
_JET = [_FIELD.symbol(c) for c in enumerate_coordinates(_FIELD, 3)]
_T, _X, _U = _JET[:3]
_U_X, _V_T, _U_TX = sp.symbols("u_x v_t u_tx")
_F = sp.Function("F")(_T, _U, _U_X)
_G = sp.Function("G")(_X, _V_T, _U_TX)
_LEAVES = _JET + [
    sp.Symbol("T"), sp.Symbol("k"),            # parameters
    sp.Symbol("w_t"), sp.Symbol("u_q"),        # names outside the space
    sp.Integer(2), sp.Rational(-3, 4), sp.pi,
    _F, _G, sp.diff(_F, _U_X), sp.diff(_G, _U_TX, _V_T),
    # a record whose variable occurs in no slot: bound, not free
    sp.Derivative(_F, _JET[-1], evaluate=False),
]


def _free_symbols_order(space, e):
    order = 0
    for s in e.free_symbols:
        coord = space.coordinate_of(s)
        if coord is not None:
            order = max(order, coord.order)
    return order


def _subs(e, var, point):
    # sympy cannot sort sums of Subs whose variable is absent
    return sp.Subs(e, var, point) if var in e.free_symbols else e


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        st.tuples(children, st.sampled_from([2, -1, sp.Rational(1, 2)]))
        .map(lambda p: p[0] ** p[1]),
        st.tuples(st.sampled_from([sp.sin, sp.exp, sp.sqrt]), children)
        .map(lambda p: p[0](p[1])),
        st.tuples(children, st.sampled_from(_JET), st.sampled_from(_LEAVES))
        .map(lambda p: _subs(p[0] * p[1], p[1], p[2])),
        st.tuples(children, st.sampled_from(_JET))
        .map(lambda p: sp.Integral(p[0], (p[1], 0, 1))),
    )


_EXPRS = st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_EXPRS)
def test_jet_order_matches_free_symbols_definition(e):
    expected = _free_symbols_order(_FIELD, e)
    assert _FIELD.jet_order(e) == expected
    # again, now answered from the memo
    assert _FIELD.jet_order(e) == expected


def test_jet_order_does_not_depend_on_symbol_construction():
    # a name resolves the same before and after the space builds its
    # symbol, and equal spaces resolve it alike
    space = JetSpace(("ab", "c"), ("u",))
    u_abc = sp.Symbol("u_abc")
    e = sp.Symbol("T") * u_abc + 1
    assert space.jet_order(e) == 2
    assert space.fibre_symbol(1, MultiIndex((1, 2))) == u_abc
    assert space.jet_order(e) == 2
    assert JetSpace(("ab", "c"), ("u",)).jet_order(e) == 2


def test_jet_order_exact_where_sympy_equality_is_coarse():
    # one expression substituted at points of different orders: the
    # order counts the point, not the variable the Subs binds, on its
    # own and inside a sum
    T = sp.Symbol("T")
    a = sp.Subs(_U_X * T, _U_X, sp.Symbol("u_t"))
    b = sp.Subs(_U_X * T, _U_X, _T)
    assert (_FIELD.jet_order(a), _FIELD.jet_order(b)) == (1, 0)
    assert (_FIELD.jet_order(a + 1), _FIELD.jet_order(b + 1)) == (1, 0)


def test_jet_order_memo_stays_bounded():
    space = JetSpace(("t",), ("q",))
    syms = [space.symbol(c) for c in enumerate_coordinates(space, 3)]
    for k in range(2 * jet_space._ORDER_MEMO_SIZE):
        e = (k + 2) * syms[k % 5] * syms[(k + 1) % 5] + syms[0]
        assert space.jet_order(e) == _free_symbols_order(space, e)
    assert 0 < len(jet_space._ORDER_MEMO) <= jet_space._ORDER_MEMO_SIZE
