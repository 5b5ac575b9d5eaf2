"""A small text format (.jv) for jet-space models.

Statements are ``;``-terminated::

    space { base t; fibre q; }
    param m k;
    opaque L(t, q, q_t);
    form lambda : degree 1 order 1 = (1/2 * m * q_t**2 - k*q**2) * d(t);
    field X = q * D(q) + 2 * t * D(t);

Form expressions combine scalars (rationals, parameters, coordinates,
constants such as ``pi`` and ``E``, opaque calls, the functions of
``symexpr.FUNCTIONS``) with the coframe atoms ``d(x)`` and ``w(y,[J])``
through ``* / + - **`` and the wedge ``^``; no coordinate, parameter
or opaque may take a constant's name.  Binding is tightest first:
``**``, then unary ``-``, then ``* /``, then ``^``, then ``+ -``; so
``a * w(q)^d(t)`` is ``(a*w(q))^d(t)``.  A jet coordinate is spelled
only ``<fibre>_<base names>`` with its indices in declared base order
(``u_tx`` over ``base t x``; ``u_xt`` and ``q_`` are unknown), and no
base name may be a prefix of another.  ``d`` of a fibre coordinate
expands through the contact basis.  Multi-indices are bracketed
base-name lists; unsorted input is canonicalized with a warning.  Commas
in lists (names, opaque slots and arguments, multi-indices) are
optional.

A field body is a scalar in which ``D(x)`` stands for the direction
d/dx of a base or fibre coordinate x.  It must be linear in the
directions with no other term, a sum of ``<expr> * D(<coord>)`` terms;
the component on ``D(x)`` is the body's derivative by that direction,
and components on base directions may depend on base coordinates only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

import sympy as sp

from .jet_space import JetCoordinate, JetSpace, MultiIndex
from . import forms as fm
from . import symexpr
from .forms import Form
from .prolong import ProjectableVectorField

__all__ = ["DslError", "ModelFile", "parse"]


class DslError(ValueError):
    """A parse or validation error with location diagnostics."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.message = message
        self.line = line
        self.col = col
        where = " (line %d, column %d)" % (line, col) if line else ""
        super().__init__(message + where)


@dataclass
class ModelFile:
    """A parsed model: one jet space plus named declarations."""

    space: JetSpace
    params: tuple[str, ...] = ()
    opaques: dict = field(default_factory=dict)   # name -> slot symbols
    forms: dict = field(default_factory=dict)     # name -> Form
    fields: dict = field(default_factory=dict)    # name -> vector field
    warnings: list = field(default_factory=list)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|[{}()\[\],;:=^*/+-])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslError("unexpected character %r" % text[pos], line, col)
        kind = match.lastgroup
        chunk = match.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


_Value = Union[sp.Expr, Form]


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.model: Optional[ModelFile] = None
        self.warnings: list[str] = []
        # coordinate -> direction symbol, inside a field declaration only
        self.directions: Optional[dict[JetCoordinate, sp.Dummy]] = None

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise DslError("expected %r, found %r" % (text, tok.text or "end"),
                           tok.line, tok.col)
        return tok

    def expect_name(self, what: str = "identifier") -> _Token:
        tok = self.next()
        if tok.kind != "name":
            raise DslError("expected %s, found %r" % (what, tok.text or "end"),
                           tok.line, tok.col)
        return tok

    def parse_list(self, close: str, item) -> list:
        """Items up to ``close``, with optional commas between them."""
        items = []
        while self.peek().text != close:
            if self.peek().text == ",":
                self.next()
            else:
                items.append(item())
        self.expect(close)
        return items

    # statements

    def parse_model(self) -> ModelFile:
        while self.peek().kind != "eof":
            tok = self.expect_name()
            statement = self.STATEMENTS.get(tok.text)
            if statement is None:
                raise DslError("unknown statement %r" % tok.text,
                               tok.line, tok.col)
            statement(self, tok)
        if self.model is None:
            raise DslError("model contains no space declaration")
        self.model.warnings = self.warnings
        return self.model

    def require_model(self, tok: _Token) -> ModelFile:
        if self.model is None:
            raise DslError("space must be declared first", tok.line, tok.col)
        return self.model

    def parse_space(self, tok: _Token) -> None:
        if self.model is not None:
            raise DslError("duplicate space declaration", tok.line, tok.col)
        self.expect("{")
        self.expect("base")
        base = self.parse_list(";", self.expect_name)
        self.expect("fibre")
        fibre = self.parse_list(";", self.expect_name)
        self.expect("}")
        for name in base + fibre:
            if _is_constant(name.text):
                raise DslError("coordinate %r shadows a constant" % name.text,
                               name.line, name.col)
        try:
            space = JetSpace(tuple(t.text for t in base),
                             tuple(t.text for t in fibre))
        except ValueError as exc:
            raise DslError(str(exc), tok.line, tok.col) from exc
        self.model = ModelFile(space)

    def check_new_name(self, what: str, name: str, tok: _Token) -> None:
        """Refuse a name that hides another or that rendered text reads
        back as something else (function and builtin names only when
        applied, so a parameter may take them)."""
        model = self.model
        opaque = what == "opaque"
        for kind, taken in (
                ("a coordinate", model.space.coordinate_of(sp.Symbol(name))),
                ("a parameter", opaque and name in model.params),
                ("an opaque", name in model.opaques),
                ("a constant", _is_constant(name)),
                ("a function", opaque and name in symexpr.FUNCTIONS),
                ("a builtin", opaque and name in ("d", "w", "D"))):
            if taken:
                raise DslError("%s %r shadows %s" % (what, name, kind),
                               tok.line, tok.col)

    def parse_param(self, tok: _Token) -> None:
        model = self.require_model(tok)
        names = [t.text for t in self.parse_list(";", self.expect_name)]
        for name in names:
            self.check_new_name("parameter", name, tok)
        model.params = model.params + tuple(names)

    def parse_opaque(self, tok: _Token) -> None:
        model = self.require_model(tok)
        name = self.expect_name()
        self.check_new_name("opaque", name.text, name)
        self.expect("(")

        def slot() -> sp.Symbol:
            stok = self.expect_name("coordinate name")
            sym = sp.Symbol(stok.text)
            if model.space.coordinate_of(sym) is None \
                    and stok.text not in model.params:
                raise DslError("unknown opaque slot %r" % stok.text,
                               stok.line, stok.col)
            return sym

        slots = self.parse_list(")", slot)
        self.expect(";")
        model.opaques[name.text] = tuple(slots)

    def parse_form(self, tok: _Token) -> None:
        model = self.require_model(tok)
        name = self.expect_name()
        self.expect(":")
        self.expect("degree")
        degree = self.parse_int()
        self.expect("order")
        order = self.parse_int()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        if not isinstance(value, Form):  # the scalar 0 is a form of any degree
            value = fm.zero(model.space, degree) if value == 0 \
                else fm.scalar_form(model.space, value)
        if value.degree != degree:
            raise DslError("form %r has degree %d, declared %d"
                           % (name.text, value.degree, degree),
                           name.line, name.col)
        try:
            # the declared order, not the one intermediate ops carried
            value = Form(model.space, degree, value.terms, order=order)
        except ValueError as exc:
            raise DslError("form %r violates declared order %d: %s"
                           % (name.text, order, exc), name.line, name.col)
        _check_finite_real(value.terms.values(), "form", name)
        model.forms[name.text] = value

    def parse_field(self, tok: _Token) -> None:
        model = self.require_model(tok)
        name = self.expect_name()
        self.expect("=")
        self.directions = directions = {}
        try:
            body = self.parse_expr()
        finally:
            self.directions = None
        self.expect(";")
        if isinstance(body, Form):
            raise _not_a_field(name)
        _check_finite_real([body], "field", name)
        components = {c: sp.diff(body, D) for c, D in directions.items()}
        linear = sum((v * directions[c] for c, v in components.items()),
                     sp.Integer(0))
        if sp.expand(body - linear) != 0 or any(
                v.has(*directions.values()) for v in components.values()):
            raise _not_a_field(name)
        xi = {c.index: v for c, v in components.items() if c.kind == "base"}
        Xi = {c.index: v for c, v in components.items() if c.kind == "fibre"}
        try:
            model.fields[name.text] = ProjectableVectorField(
                model.space, xi, Xi)
        except ValueError as exc:
            raise DslError(str(exc), name.line, name.col) from exc

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "num":
            raise DslError("expected integer, found %r" % (tok.text or "end"),
                           tok.line, tok.col)
        return int(tok.text)

    # expressions

    def parse_expr(self, level: int = 0) -> _Value:
        if level == len(self.LEVELS):
            return self.parse_unary()
        ops, combine = self.LEVELS[level]
        value = self.parse_expr(level + 1)
        while self.peek().text in ops:
            op = self.next()
            value = combine(self, value, self.parse_expr(level + 1), op)
        return value

    def parse_unary(self) -> _Value:
        if self.peek().text == "-":
            self.next()
            return -self.parse_unary()
        if self.peek().text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> _Value:
        base = self.parse_atom()
        if self.peek().text == "**":
            op = self.next()
            expo = self.parse_unary()
            if isinstance(base, Form) or isinstance(expo, Form):
                raise DslError("** applies to scalars only", op.line, op.col)
            return base ** expo
        return base

    def parse_atom(self) -> _Value:
        tok = self.next()
        model = self.model
        if tok.text == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "num":
            return sp.Integer(int(tok.text))
        if tok.kind != "name":
            raise DslError("unexpected %r" % (tok.text or "end"),
                           tok.line, tok.col)
        # d/w/D act as builtins only when applied; "w" alone can still
        # name a coordinate (there is no implicit multiplication)
        if self.peek().text == "(":
            if tok.text == "d":
                return self.parse_d(tok)
            if tok.text == "w":
                return self.parse_w(tok)
            if tok.text == "D":
                return self.parse_D(tok)
        if tok.text in model.opaques:
            return self.parse_opaque_call(tok)
        if self.peek().text == "(" and tok.text in symexpr.FUNCTIONS:
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            if isinstance(arg, Form):
                raise DslError("%s applies to scalars" % tok.text,
                               tok.line, tok.col)
            return symexpr.FUNCTIONS[tok.text](arg)
        sym = sp.Symbol(tok.text)
        if model.space.coordinate_of(sym) is not None \
                or tok.text in model.params:
            return sym
        if isinstance(getattr(sp, tok.text, None), sp.NumberSymbol):
            return getattr(sp, tok.text)  # pi, E, ...
        raise DslError("unknown identifier %r" % tok.text, tok.line, tok.col)

    def parse_opaque_call(self, tok: _Token) -> sp.Expr:
        slots = self.model.opaques[tok.text]
        if self.peek().text == "(":
            self.next()

            def arg() -> sp.Expr:
                atok = self.peek()
                value = self.parse_expr()
                if isinstance(value, Form):
                    raise DslError("opaque arguments must be scalars",
                                   atok.line, atok.col)
                return value

            if tuple(self.parse_list(")", arg)) != tuple(slots):
                raise DslError("opaque %r must be applied to its declared "
                               "slots" % tok.text, tok.line, tok.col)
        return symexpr.opaque(tok.text, *slots)

    def parse_coordinate(self, context: str) -> JetCoordinate:
        tok = self.expect_name()
        coord = self.model.space.coordinate_of(sp.Symbol(tok.text))
        if coord is None:
            raise DslError("unknown coordinate %r in %s" % (tok.text, context),
                           tok.line, tok.col)
        return coord

    def parse_d(self, tok: _Token) -> Form:
        self.expect("(")
        coord = self.parse_coordinate("d(...)")
        self.expect(")")
        space = self.model.space
        if coord.kind == "base":
            return fm.dx(space, coord.index)
        # dy^sigma_J = omega^sigma_J + y^sigma_{Jj} dx^j
        out = fm.omega(space, coord.index, coord.J)
        for j in range(1, space.n + 1):
            out = out + space.fibre_symbol(coord.index, coord.J.append(j)) \
                * fm.dx(space, j)
        return out

    def parse_multiindex(self, tok: _Token) -> MultiIndex:
        space = self.model.space

        def entry() -> int:
            etok = self.next()
            if etok.text not in space.base_names:
                raise DslError("expected base coordinate in multi-index, "
                               "found %r" % (etok.text or "end"),
                               etok.line, etok.col)
            return space.base_names.index(etok.text) + 1

        self.expect("[")
        entries = self.parse_list("]", entry)
        if entries != sorted(entries):
            self.warnings.append(
                "line %d: multi-index %s canonicalized to sorted order"
                % (tok.line, entries))
        return MultiIndex(tuple(sorted(entries)))

    def parse_w(self, tok: _Token) -> Form:
        self.expect("(")
        space = self.model.space
        ftok = self.expect_name()
        if ftok.text not in space.fibre_names:
            raise DslError("unknown fibre coordinate %r" % ftok.text,
                           ftok.line, ftok.col)
        sigma = space.fibre_names.index(ftok.text) + 1
        J = MultiIndex()
        if self.peek().text == ",":
            self.next()
            J = self.parse_multiindex(tok)
        self.expect(")")
        return fm.omega(space, sigma, J)

    def parse_D(self, tok: _Token) -> sp.Dummy:
        if self.directions is None:
            raise DslError("D(...) is only valid in field declarations",
                           tok.line, tok.col)
        self.expect("(")
        coord = self.parse_coordinate("D(...)")
        self.expect(")")
        if coord.kind == "fibre" and len(coord.J):
            raise DslError("field components attach to d/dx^i and "
                           "d/dy^sigma only", tok.line, tok.col)
        if coord not in self.directions:
            self.directions[coord] = sp.Dummy(
                "D(%s)" % self.model.space.symbol(coord))
        return self.directions[coord]

    # value combination

    def combine_add(self, a: _Value, b: _Value, op: _Token) -> _Value:
        if op.text == "-":
            b = -b
        if isinstance(a, Form) == isinstance(b, Form):
            try:
                return a + b
            except ValueError as exc:
                raise DslError(str(exc), op.line, op.col) from exc
        # scalar 0 mixes with anything (e.g. "0 + w(q)")
        if not isinstance(a, Form) and a == 0:
            return b
        if not isinstance(b, Form) and b == 0:
            return a
        raise DslError("cannot add a scalar and a form", op.line, op.col)

    def combine_wedge(self, a: _Value, b: _Value, op: _Token) -> Form:
        a, b = (v if isinstance(v, Form) else
                fm.scalar_form(self.model.space, v) for v in (a, b))
        return fm.wedge(a, b)

    def combine_mul(self, a: _Value, b: _Value, op: _Token) -> _Value:
        if isinstance(b, Form):
            if op.text == "/":
                raise DslError("division by a form", op.line, op.col)
            if isinstance(a, Form):
                raise DslError("use ^ to multiply forms", op.line, op.col)
            return b * a
        if op.text == "/":
            b = sp.Integer(1) / b
        return a * b

    # loosest first; parse_expr(level) reads a chain of level's operators
    LEVELS = ((("+", "-"), combine_add), (("^",), combine_wedge),
              (("*", "/"), combine_mul))
    STATEMENTS = {"space": parse_space, "param": parse_param,
                  "opaque": parse_opaque, "form": parse_form,
                  "field": parse_field}


def _not_a_field(name: _Token) -> DslError:
    return DslError("field %r must be a sum of <expr> * D(<coord>) terms"
                    % name.text, name.line, name.col)


def _is_constant(name: str) -> bool:
    """Whether sympy reads ``name`` as a constant such as pi or E."""
    return isinstance(getattr(sp, name, None), sp.NumberSymbol)


def _check_finite_real(coeffs, what: str, name: _Token) -> None:
    """Reject what 1/0, 0/0 or sqrt(-1) leave in a coefficient: the
    engine's scalars are finite and real."""
    for coeff in coeffs:
        if coeff.has(sp.I, *symexpr.NON_FINITE):
            raise DslError("%s %r has a non-finite or non-real coefficient "
                           "%s" % (what, name.text, coeff),
                           name.line, name.col)


def parse(text: str) -> ModelFile:
    """Parse model text into a :class:`ModelFile`."""
    return _Parser(text).parse_model()
