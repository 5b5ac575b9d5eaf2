"""Exact symbolic scalars over jet coordinates.

Expressions are sympy trees over coordinate symbols of a
:class:`~varseq.jet_space.JetSpace`, named parameters, elementary
functions, and opaque function atoms (undefined functions applied to a
fixed tuple of jet coordinates, with derivatives kept as ``Derivative``
records).  All coefficients are exact rationals; canonicalization is a
shallow expand, and semantic equality beyond polynomial closure is
delegated to the probe module.

The partials and the total derivatives d_i are one chain-rule walker,
given the derivation's values on symbols: numbers and constants such as
pi map to 0; an opaque atom or derivative record over distinct symbol
slots to the sum over its slots of D(slot) times its merged derivative
record; Add, Mul, Pow and functions (opaque atoms with expression slots
too, through ``fdiff``) by the chain rule; any other node (Subs,
Integral, ...) to the sum over its free symbols x of D(x) sp.diff(e, x).
One memo table of fixed size, wiped when full, keeps d_i of composite
nodes and the partials of atoms.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Mapping, Optional

import mpmath
import sympy as sp
from sympy.core.function import AppliedUndef

from .jet_space import JetCoordinate, JetSpace, MultiIndex

__all__ = [
    "opaque",
    "partial",
    "total_derivative",
    "total_derivative_multi",
    "canonicalize",
    "equal",
    "eval_at",
    "UndefinedAt",
    "expr_to_json",
    "expr_from_json",
]

# Values no exact coefficient may hold: what 1/0, 0/0 or log(0) give.
NON_FINITE = (sp.zoo, sp.oo, -sp.oo, sp.nan)

# The functions outside input (.jv text, JSON) may name: the elementary
# functions, and sign and DiracDelta, which derivatives of Abs produce.
FUNCTIONS = {f.__name__: f for f in (
    sp.sqrt, sp.exp, sp.log, sp.sin, sp.cos, sp.tan, sp.asin, sp.acos,
    sp.atan, sp.sinh, sp.cosh, sp.tanh, sp.asinh, sp.acosh, sp.atanh,
    sp.Abs, sp.sign, sp.DiracDelta)}


def opaque(name: str, *slots: sp.Symbol) -> sp.Expr:
    """An opaque function atom with the given argument slots."""
    return sp.Function(name)(*slots)


def _as_symbol(space: JetSpace, c) -> sp.Symbol:
    if isinstance(c, JetCoordinate):
        return space.symbol(c)
    return sp.Symbol(c) if isinstance(c, str) else c


def partial(space: JetSpace, e: sp.Expr, c) -> sp.Expr:
    """Partial derivative with respect to a single coordinate.

    The walker's derivation with D(c) = 1 and D = 0 on other symbols: on
    an opaque atom it increments the matching slot's derivative record,
    and an undeclared slot gives 0.  Only atom partials are memoized.
    """
    one = {_as_symbol(space, c): _ONE}
    return _derive(sp.sympify(e), lambda x: one.get(x, _ZERO), None)


def total_derivative(space: JetSpace, e: sp.Expr, i: int) -> sp.Expr:
    """The i-th total derivative d_i = partial_i + y^sigma_{Ji} d/dy^sigma_J.

    The walker's derivation with D(x^j) = delta_ij, D(y^sigma_J) =
    y^sigma_{Ji} and 0 on parameters; memoized on composite nodes.
    """
    return _derive(sp.sympify(e), lambda x: _td_symbol(space, x, i),
                   (space, i))


def _td_symbol(space: JetSpace, s: sp.Symbol, i: int) -> sp.Expr:
    coord = space.coordinate_of(s)
    if coord is None:
        return _ZERO
    if coord.kind == "base":
        return _ONE if coord.index == i else _ZERO
    return space.fibre_symbol(coord.index, coord.J.append(i))


_ZERO, _ONE = sp.S.Zero, sp.S.One
# Keys ((space, i), node) for d_i, (slot, atom) for atom partials.
# Partials of composite nodes would double the table and are seldom
# asked for twice, and nodes left to sp.diff are never stored: sympy's
# == on them can be coarser than the expression (Subs compares its
# points by their printed names only).
_MEMO_SIZE = 100_000
_TD_CACHE: dict = {}


def _remember(key, value: sp.Expr) -> sp.Expr:
    if len(_TD_CACHE) >= _MEMO_SIZE:
        _TD_CACHE.clear()
    _TD_CACHE[key] = value
    return value


def _derive(e: sp.Expr, d_sym, key) -> sp.Expr:
    """The derivation with values d_sym(x) on symbols, by the chain rule.

    d_sym gives 0 and 1 as the singletons _ZERO and _ONE.  key names the
    derivation in the memo table, or is None to store only atom
    partials.  Branches it maps to 0 come out as 0 through Add dropping
    zeros and the nonzero filters, so no node is scanned beforehand.
    """
    if e.is_Symbol:
        return d_sym(e)
    if not e.args:
        return _ZERO
    if key is not None:
        memo = (key, e)
        out = _TD_CACHE.get(memo)
        if out is not None:
            return out
    slots = _atom_slots(e)
    if slots is not None:
        parts = []
        for s in slots:
            ds = d_sym(s)
            if ds is _ONE:
                parts.append(_atom_partial(e, s))
            elif ds is not _ZERO:
                parts.append(_atom_partial(e, s) * ds)
        out = sp.Add(*parts)
    elif e.is_Add:
        out = sp.Add(*[_derive(a, d_sym, key) for a in e.args])
    elif e.is_Mul:
        parts = []
        args = e.args
        for p, f in enumerate(args):
            df = _derive(f, d_sym, key)
            if df != 0:
                parts.append(sp.Mul(*args[:p], df, *args[p + 1:]))
        out = sp.Add(*parts)
    elif e.is_Pow:
        base, expo = e.base, e.exp
        out = _ZERO
        db = _derive(base, d_sym, key)
        de = _derive(expo, d_sym, key)
        if db != 0:
            out += expo * base ** (expo - 1) * db
        if de != 0:
            out += e * sp.log(base) * de
    elif isinstance(e, sp.Function):
        out = _ZERO
        for p, a in enumerate(e.args, start=1):
            da = _derive(a, d_sym, key)
            if da != 0:
                out += e.fdiff(p) * da
    else:
        return sp.Add(*[dx * sp.diff(e, x) for x in e.free_symbols
                        if (dx := d_sym(x)) != 0])
    if key is not None:
        _remember(memo, out)
    return out


def _atom_slots(e: sp.Expr) -> Optional[tuple]:
    """The slots of an opaque atom or derivative record if they are
    distinct symbols, else None."""
    f = e.expr if isinstance(e, sp.Derivative) else e
    if (isinstance(f, AppliedUndef) and all(a.is_Symbol for a in f.args)
            and len(set(f.args)) == len(f.args)):
        return f.args
    return None


def _atom_partial(e: sp.Expr, s: sp.Symbol) -> sp.Expr:
    """d e/d s for an atom with distinct symbol slots, s one of them.

    Builds the merged derivative record directly from the args that
    Derivative(e, *pairs, evaluate=False) stores, in sympy's canonical
    variable order, skipping sp.diff and Derivative's argument checks.
    """
    key = (s, e)
    out = _TD_CACHE.get(key)
    if out is not None:
        return out
    vc: dict[sp.Symbol, int] = {}
    if isinstance(e, sp.Derivative):
        for v, c in e.variable_count:
            vc[v] = vc.get(v, 0) + int(c)
        e = e.expr
    vc[s] = vc.get(s, 0) + 1
    pairs = sorted(vc.items(), key=lambda p: sp.default_sort_key(p[0]))
    return _remember(key, sp.Expr.__new__(
        sp.Derivative, e, *[sp.Tuple(v, c) for v, c in pairs]))


def total_derivative_multi(space: JetSpace, e: sp.Expr, J: MultiIndex) -> sp.Expr:
    """Iterated total derivative d_J; application order is irrelevant."""
    for i in J.entries:
        e = total_derivative(space, e, i)
    return e


def canonicalize(e: sp.Expr) -> sp.Expr:
    """Expanded sum of monomials with rational coefficients; idempotent."""
    return sp.expand(sp.sympify(e))


def is_rational_closed(e: sp.Expr) -> bool:
    """True when e is a rational tree over its atoms.

    Symbols, opaque atoms, their derivative records, and the constants
    sympy knows to be transcendental (pi, E) count as atoms.  Elementary
    functions, non-integer powers, floats, other constants (GoldenRatio
    is algebraic, Catalan unclassified), derivatives of anything but an
    opaque atom, and nodes that bind variables (Integral, Subs, Lambda,
    ...) break closure.
    """
    for node in sp.preorder_traversal(sp.sympify(e)):
        if node.is_Pow:
            if not node.exp.is_Integer:
                return False
        elif isinstance(node, sp.Function):
            if not isinstance(node, AppliedUndef):
                return False
        elif isinstance(node, sp.Derivative):
            if not isinstance(node.expr, AppliedUndef):
                return False
        elif isinstance(node, sp.NumberSymbol):
            if node.is_transcendental is not True:
                return False
        elif node.is_Float or hasattr(node, "bound_symbols"):
            return False
    return True


def equal(e1: sp.Expr, e2: sp.Expr) -> Optional[bool]:
    """Exact equality of canonical forms; None means "unknown".

    True and False verdicts are exact.  For trees that are not rational
    over their atoms the verdict is None and the caller should fall back
    to numeric probing.
    """
    diff = canonicalize(sp.sympify(e1) - sp.sympify(e2))
    if diff == 0:
        return True
    if is_rational_closed(diff) and all(p.exp > 0 for p in diff.atoms(sp.Pow)):
        return False  # a nonzero expanded polynomial over its atoms
    diff = sp.cancel(sp.together(diff))
    if diff == 0:
        return True
    if is_rational_closed(diff):
        return False
    return None


class UndefinedAt(ValueError):
    """No value at a point: a pole, or a non-real or non-finite node."""


# Irrational values: mpmath at a fixed precision, in a private context
# (the global mpmath.mp is never written).
_MP = mpmath.MPContext()
_MP.dps = 30
_MPF = _MP.mpf


def _real(v):
    """v if it is a finite real mpf; ArithmeticError means undefined."""
    if type(v) is not _MPF or not _MP.isfinite(v):
        raise ArithmeticError(v)
    return v


def _exact(v):
    if not isinstance(v, numbers.Rational):
        raise ValueError("not a rational value: %r" % (v,))
    return Fraction(v.numerator, v.denominator)


def _pow(v):
    b, x = v
    if type(x) is not _MPF and x.denominator == 1:
        return b ** int(x)
    if type(b) is not _MPF and type(x) is not _MPF and b >= 0:
        n, d = (sp.integer_nthroot(k, x.denominator)
                for k in (b.numerator, b.denominator))
        if n[1] and d[1]:  # a perfect power, exact as in sympy
            return Fraction(n[0], d[0]) ** x.numerator
    return _real(_MP.power(b, x))


def _function(f, at, value):
    # exact at the one rational argument where f is rational, as in sympy
    return lambda v: (Fraction(value) if type(v[0]) is not _MPF and v[0] == at
                      else _real(f(v[0])))


_STEPS = {sp.Add: sum, sp.Mul: math.prod, sp.Pow: _pow,
          type(sp.pi): lambda v: _MPF(_MP.pi),
          type(sp.E): lambda v: _MPF(_MP.e), sp.Abs: lambda v: abs(v[0]),
          sp.sign: lambda v: (_MP.sign(v[0]) if type(v[0]) is _MPF
                              else Fraction((v[0] > 0) - (v[0] < 0)))}
for _fs, _at, _v in (("exp cos cosh", 0, 1), ("log acos acosh", 1, 0),
                     ("sin tan asin atan sinh tanh asinh atanh", 0, 0)):
    _STEPS.update((getattr(sp, f), _function(getattr(_MP, f), _at, _v))
                  for f in _fs.split())


def _leaf(node, symbols, v):
    """The value of any other node: xreplace and evalf on its subtree."""
    out = node.xreplace({s: sp.Rational(a) for s, a in zip(symbols, v)})
    out = out if out.is_Rational else out.evalf(_MP.dps)
    return _exact(out) if out.is_Rational else _real(
        _MPF(out) if out.is_Float else None)


def _compile(e: sp.Expr,
             instantiations: Optional[Mapping[str, sp.Expr]] = None):
    """The straight-line program (symbols, steps, root) of a scalar: the
    registers hold the symbols' values, then one per unique node (by id)
    in post-order from a step (function, operand registers) of _STEPS, a
    rational constant, or a leaf step on the node's free symbols."""
    e = sp.sympify(e)
    if instantiations:
        e = e.xreplace({f: instantiations[f.func.__name__]
                        for f in e.atoms(AppliedUndef)
                        if f.func.__name__ in instantiations})
    e = e.xreplace({d: d.doit() for d in e.atoms(sp.Derivative)})
    opaque_names = {f.func.__name__ for f in e.atoms(AppliedUndef)}
    if opaque_names:
        raise ValueError("opaque atoms without registered instantiation: %s"
                         % sorted(opaque_names))
    symbols = sorted(e.free_symbols, key=sp.default_sort_key)
    index = {s: i for i, s in enumerate(symbols)}
    steps, seen = [], {}

    def visit(node) -> int:
        if node.is_Symbol:
            return index[node]
        if id(node) not in seen:
            fn = _STEPS.get(type(node))
            if fn is not None:
                args = [visit(a) for a in node.args]
            elif node.is_Rational:
                fn, args = (lambda v, c=_exact(node): c), []
            else:
                free = sorted(node.free_symbols, key=sp.default_sort_key)
                fn = lambda v: _leaf(node, free, v)
                args = [index[s] for s in free]
            steps.append((fn, args))
            seen[id(node)] = len(symbols) + len(steps) - 1
        return seen[id(node)]

    return symbols, steps, visit(e)


def _run(program, assignment: Mapping):
    """Run a program on rational values of its symbols: an exact result
    as sp.Rational, an inexact one as float."""
    symbols, steps, root = program
    missing = [s.name for s in symbols if s not in assignment]
    if missing:
        raise ValueError("missing assignment for %s" % sorted(missing))
    regs = [_exact(assignment[s]) for s in symbols]
    try:
        for fn, args in steps:
            regs.append(fn([regs[i] for i in args]))
    except ArithmeticError:  # ZeroDivisionError, or _real's refusal
        raise UndefinedAt("value undefined at %s" % (dict(assignment),)
                          ) from None
    v = regs[root]
    return float(v) if type(v) is _MPF else sp.Rational(v)


def eval_at(space: JetSpace, e: sp.Expr, assignment: Mapping,
            instantiations: Optional[Mapping[str, sp.Expr]] = None):
    """Evaluate at rational coordinate/parameter values.

    Arithmetic is exact on rational values (sqrt(4/9) = 2/3), giving an
    sp.Rational; irrational values (other roots, pi, E, the elementary
    functions) are computed in mpmath at a fixed 30 digits, giving a
    float.  Opaque atoms need an instantiation (an expression in the
    atom's slots).  Raises :class:`UndefinedAt` where a node is a pole,
    non-real or non-finite.
    """
    return _run(_compile(e, instantiations),
                {_as_symbol(space, k): v for k, v in assignment.items()})


# serialization


def expr_to_json(e: sp.Expr) -> object:
    """Stable JSON tree for a scalar expression."""
    e = sp.sympify(e)
    if e.is_Integer:
        return {"kind": "rational", "p": int(e), "q": 1}
    if e.is_Rational:
        return {"kind": "rational", "p": int(e.p), "q": int(e.q)}
    if e.is_Symbol:
        return {"kind": "symbol", "name": e.name}
    if isinstance(e, sp.NumberSymbol):
        return {"kind": "const", "name": str(e)}
    if isinstance(e, sp.Derivative):
        return {
            "kind": "derivative",
            "expr": expr_to_json(e.expr),
            "vars": [{"name": v.name, "count": int(c)}
                     for v, c in e.variable_count],
        }
    if isinstance(e, AppliedUndef):
        return {"kind": "opaque", "name": e.func.__name__,
                "args": [expr_to_json(a) for a in e.args]}
    if isinstance(e, sp.Function):
        return {"kind": "func", "name": type(e).__name__,
                "args": [expr_to_json(a) for a in e.args]}
    if e.is_Add or e.is_Mul:
        kind = "add" if e.is_Add else "mul"
        args = sorted(e.args, key=sp.default_sort_key)
        return {"kind": kind, "args": [expr_to_json(a) for a in args]}
    if e.is_Pow:
        return {"kind": "pow", "base": expr_to_json(e.base),
                "exp": expr_to_json(e.exp)}
    raise ValueError("unsupported expression node: %r" % (e,))


def expr_from_json(node: object) -> sp.Expr:
    """Inverse of :func:`expr_to_json`."""
    if not isinstance(node, dict):
        raise ValueError("malformed expression node: %r" % (node,))
    kind = node.get("kind")
    if kind == "rational":
        return sp.Rational(node["p"], node["q"])
    if kind == "symbol":
        return sp.Symbol(node["name"])
    if kind == "const":
        c = getattr(sp, node["name"], None)
        if not isinstance(c, sp.NumberSymbol):
            raise ValueError("unknown constant: %r" % (node["name"],))
        return c
    if kind == "add":
        return sp.Add(*[expr_from_json(a) for a in node["args"]])
    if kind == "mul":
        return sp.Mul(*[expr_from_json(a) for a in node["args"]])
    if kind == "pow":
        return sp.Pow(expr_from_json(node["base"]),
                      expr_from_json(node["exp"]))
    if kind == "func":
        fn = FUNCTIONS.get(node["name"])
        if fn is None:
            raise ValueError("unknown function: %r" % (node["name"],))
        return fn(*[expr_from_json(a) for a in node["args"]])
    if kind == "opaque":
        f = sp.Function(node["name"])(*[expr_from_json(a)
                                        for a in node["args"]])
        return f
    if kind == "derivative":
        f = expr_from_json(node["expr"])
        vc = [(sp.Symbol(v["name"]), v["count"]) for v in node["vars"]]
        return sp.Derivative(f, *vc)
    raise ValueError("unknown expression node kind: %r" % (kind,))
