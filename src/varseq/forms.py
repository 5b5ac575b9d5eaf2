"""Exterior algebra in the contact-adapted coframe on J^s Y.

Forms are stored exclusively over the coframe {dx^i, omega^sigma_J}
with omega^sigma_J = dy^sigma_J - y^sigma_{Jj} dx^j.  Each form carries
a jet order s (the carrier space J^s Y); omega atoms satisfy |J| <= s-1
and coefficients live on order <= s.  Terms are kept as a mapping from
a strictly sorted atom tuple to a scalar coefficient, with the sorting
sign absorbed into the coefficient, so the contact splitting p_k is a
plain term filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

import sympy as sp

from .jet_space import JetCoordinate, JetSpace, MultiIndex
from . import symexpr

__all__ = [
    "Dx",
    "Omega",
    "Form",
    "AdaptedVectorField",
    "zero",
    "scalar_form",
    "wedge",
    "wedge_all",
    "lift",
    "unit_vertical",
    "total_field",
    "exterior_d",
    "contact_component",
    "horizontalize",
    "d_H",
    "d_V",
    "contract",
    "is_strongly_contact",
    "dx",
    "omega",
    "omega0",
    "omega_i",
    "form_to_json",
    "form_from_json",
]


@dataclass(frozen=True, order=True)
class Dx:
    """The coframe atom dx^i."""

    i: int

    @property
    def sort_key(self):
        return (0, self.i, ())


@dataclass(frozen=True, order=True)
class Omega:
    """The contact coframe atom omega^sigma_J."""

    sigma: int
    J: MultiIndex = MultiIndex()

    @property
    def sort_key(self):
        return (1, self.sigma, self.J.entries)


Atom = Union[Dx, Omega]


def _sort_atoms(atoms: Iterable[Atom]) -> Optional[tuple[tuple[Atom, ...], int]]:
    """Sort atoms, returning (sorted tuple, parity sign) or None if repeated."""
    atoms = list(atoms)
    keys = [a.sort_key for a in atoms]
    if len(set(keys)) != len(keys):
        return None
    sign = 1
    # insertion sort with transposition counting
    for i in range(1, len(atoms)):
        j = i
        while j > 0 and atoms[j - 1].sort_key > atoms[j].sort_key:
            atoms[j - 1], atoms[j] = atoms[j], atoms[j - 1]
            sign = -sign
            j -= 1
    return tuple(atoms), sign


def _add_term(terms: dict, atoms: Iterable[Atom], coeff: sp.Expr,
              *factors: sp.Expr) -> None:
    """Append sign * coeff * factors to the summand list of the sorted
    atoms, sign the sorting parity; a repeated atom makes it vanish."""
    srt = _sort_atoms(atoms)
    if srt is None:
        return
    atoms, sign = srt
    coeff = sign * coeff
    for f in factors:
        coeff = coeff * f
    terms.setdefault(atoms, []).append(coeff)


class Form:
    """A differential form on J^s Y in the contact-adapted coframe."""

    def __init__(self, space: JetSpace, degree: int,
                 terms: Mapping[tuple[Atom, ...], sp.Expr | list],
                 order: Optional[int] = None, _checked: bool = False) -> None:
        self.space = space
        self.degree = degree
        clean: dict[tuple[Atom, ...], sp.Expr] = {}
        for atoms, coeff in terms.items():
            coeff = (sp.Add(*coeff) if isinstance(coeff, list)
                     else sp.sympify(coeff))
            if not _checked:
                # user-facing path: canonicalize eagerly
                if len(atoms) != degree:
                    raise ValueError("atom count does not match degree")
                coeff = sp.expand(coeff)
                if coeff == 0:
                    continue
                srt = _sort_atoms(atoms)
                if srt is None:
                    continue
                atoms, sign = srt
                coeff = clean.get(atoms, 0) + sign * coeff
            if coeff != 0:
                clean[atoms] = coeff
            else:
                clean.pop(atoms, None)
        self.terms = clean
        minimal = self.minimal_order()
        if order is None:
            order = minimal
        elif order < minimal:
            raise ValueError("declared order %d below minimal order %d"
                             % (order, minimal))
        self.order = order

    # structural helpers

    def minimal_order(self) -> int:
        out = 0
        for atoms, coeff in self.terms.items():
            out = max(out, self.space.jet_order(coeff))
            for a in atoms:
                if isinstance(a, Omega):
                    out = max(out, len(a.J) + 1)
                    if a.sigma > self.space.m or any(
                            i > self.space.n for i in a.J.entries):
                        raise ValueError("atom outside space: %r" % (a,))
                elif a.i > self.space.n:
                    raise ValueError("atom outside space: %r" % (a,))
        return out

    def is_zero(self) -> Optional[bool]:
        """Exact zero test: True, False, or None ("unknown") when some
        coefficient is not rational-closed (see :func:`symexpr.equal`)."""
        unknown = False
        for coeff in self.terms.values():
            verdict = symexpr.equal(coeff, 0)
            if verdict is False:
                return False
            if verdict is None:
                unknown = True
        return None if unknown else True

    def canonical(self) -> "Form":
        """Expand all coefficients and prune zero terms."""
        return Form(self.space, self.degree, self.terms, order=self.order)

    def contact_count(self, atoms: tuple[Atom, ...]) -> int:
        return sum(1 for a in atoms if isinstance(a, Omega))

    def coefficient(self, atoms: Iterable[Atom]) -> sp.Expr:
        srt = _sort_atoms(atoms)
        if srt is None:
            return sp.Integer(0)
        sorted_atoms, sign = srt
        return sign * self.terms.get(sorted_atoms, sp.Integer(0))

    # ring structure

    def __add__(self, other: "Form", sign: sp.Expr = sp.S.One) -> "Form":
        """self + sign * other, each coefficient summed once."""
        if not isinstance(other, Form):
            return NotImplemented
        if other.space != self.space or other.degree != self.degree:
            raise ValueError("cannot add forms of different space or degree")
        terms = {atoms: [coeff] for atoms, coeff in self.terms.items()}
        for atoms, coeff in other.terms.items():
            terms.setdefault(atoms, []).append(sign * coeff)
        return Form(self.space, self.degree, terms,
                    order=max(self.order, other.order), _checked=True)

    def __sub__(self, other: "Form") -> "Form":
        return self.__add__(other, sp.S.NegativeOne)

    def __neg__(self) -> "Form":
        return (-1) * self

    def __mul__(self, scalar) -> "Form":
        scalar = sp.sympify(scalar)
        order = max(self.order, self.space.jet_order(scalar))
        return Form(self.space, self.degree,
                    {a: scalar * c for a, c in self.terms.items()},
                    order=order, _checked=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_zero() is True:
            return "Form<0; degree %d, order %d>" % (self.degree, self.order)
        bits = []
        for atoms in sorted(self.terms, key=lambda t: [a.sort_key for a in t]):
            atom_str = "^".join(_atom_str(self.space, a) for a in atoms)
            bits.append("(%s)%s" % (self.terms[atoms],
                                    " " + atom_str if atom_str else ""))
        return "Form<%s; order %d>" % (" + ".join(bits), self.order)

    def equals(self, other: "Form") -> Optional[bool]:
        """Exact canonical equality, ignoring carrier-order tags.

        Returns None ("unknown") when some coefficient difference is not
        rational-closed; callers then fall back to the probe module.
        """
        if self.space != other.space or self.degree != other.degree:
            return False
        return (self - other).is_zero()


def _atom_str(space: JetSpace, a: Atom) -> str:
    if isinstance(a, Dx):
        return "d(%s)" % space.base_names[a.i - 1]
    name = space.fibre_names[a.sigma - 1]
    if len(a.J):
        return "w(%s,[%s])" % (name, ",".join(space.base_names[i - 1]
                                              for i in a.J.entries))
    return "w(%s)" % name


# constructors


def zero(space: JetSpace, degree: int, order: int = 0) -> Form:
    return Form(space, degree, {}, order=order)


def scalar_form(space: JetSpace, coeff, order: Optional[int] = None) -> Form:
    return Form(space, 0, {(): sp.sympify(coeff)}, order=order)


def dx(space: JetSpace, i: int) -> Form:
    return Form(space, 1, {(Dx(i),): sp.Integer(1)})


def omega(space: JetSpace, sigma: int, J: MultiIndex = MultiIndex()) -> Form:
    return Form(space, 1, {(Omega(sigma, J),): sp.Integer(1)})


def omega0(space: JetSpace) -> Form:
    """The base volume form dx^1 ^ ... ^ dx^n."""
    atoms = tuple(Dx(i) for i in range(1, space.n + 1))
    return Form(space, space.n, {atoms: sp.Integer(1)})


def omega_i(space: JetSpace, i: int) -> Form:
    """omega_i = d/dx^i hook omega0."""
    atoms = tuple(Dx(j) for j in range(1, space.n + 1) if j != i)
    sign = (-1) ** (i - 1)
    return Form(space, space.n - 1, {atoms: sp.Integer(sign)})


# operations


def wedge(a: Form, b: Form) -> Form:
    if a.space != b.space:
        raise ValueError("wedge of forms on different spaces")
    terms: dict[tuple[Atom, ...], sp.Expr] = {}
    for atoms_a, ca in a.terms.items():
        for atoms_b, cb in b.terms.items():
            _add_term(terms, atoms_a + atoms_b, ca, cb)
    return Form(a.space, a.degree + b.degree, terms,
                order=max(a.order, b.order), _checked=True)


def wedge_all(*forms: Form) -> Form:
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def lift(rho: Form, order: int) -> Form:
    """Pullback to a higher jet order; identity on the contact basis."""
    if order < rho.order:
        raise ValueError("cannot lift to a lower order")
    return Form(rho.space, rho.degree, rho.terms, order=order, _checked=True)


def _d(rho: Form, horizontal: bool, vertical: bool) -> Form:
    """The horizontal and/or the vertical part of d rho; order goes up by 1.

    The horizontal part keeps the contact degree: total derivatives
    d_i f dx^i and the structure equation d omega^sigma_J =
    -omega^sigma_{Jj} ^ dx^j.  The vertical part, the fibre partials
    (df/dy^sigma_J) omega^sigma_J, raises it by one.  No derivative is
    taken along an atom the term already holds.
    """
    space = rho.space
    terms: dict[tuple[Atom, ...], sp.Expr] = {}
    for atoms, coeff in rho.terms.items():
        # the d_i to take: none for d_V, none along a dx^i the term holds
        dirs = [i for i in range(1, space.n + 1)
                if horizontal and Dx(i) not in atoms]
        for i in dirs:
            di = symexpr.total_derivative(space, coeff, i)
            if di != 0:
                _add_term(terms, (Dx(i),) + atoms, di)
        fibre = coeff.free_symbols if vertical else ()
        for s in sorted(fibre, key=sp.default_sort_key):
            coord = space.coordinate_of(s)
            if coord is None or coord.kind != "fibre" \
                    or Omega(coord.index, coord.J) in atoms:
                continue
            dv = symexpr.partial(space, coeff, s)
            if dv != 0:
                _add_term(terms, (Omega(coord.index, coord.J),) + atoms, dv)
        for p, a in enumerate(atoms):
            for j in dirs if isinstance(a, Omega) else ():
                new = (atoms[:p] + (Omega(a.sigma, a.J.append(j)), Dx(j))
                       + atoms[p + 1:])
                _add_term(terms, new, (-1) ** (p + 1) * coeff)
    return Form(space, rho.degree + 1, terms,
                order=rho.order + 1, _checked=True)


def exterior_d(rho: Form) -> Form:
    """Exterior derivative d = d_H + d_V through the contact basis."""
    return _d(rho, True, True)


def contact_component(rho: Form, k: int) -> Form:
    """The k-contact part p_k (a term filter in the contact basis)."""
    if not 0 <= k <= rho.degree:
        raise ValueError("contact degree out of range")
    terms = {a: c for a, c in rho.terms.items()
             if rho.contact_count(a) == k}
    return Form(rho.space, rho.degree, terms, order=rho.order, _checked=True)


def horizontalize(rho: Form) -> Form:
    """h = p_0."""
    return contact_component(rho, 0)


def d_H(rho: Form) -> Form:
    """Horizontal differential, p_k(d .) on each k-contact component:
    total derivatives and the structure equation only."""
    return _d(rho, True, False)


def d_V(rho: Form) -> Form:
    """Vertical differential, p_{k+1}(d .) on each k-contact component:
    fibre partials only."""
    return _d(rho, False, True)


@dataclass(frozen=True)
class AdaptedVectorField:
    """A field along the projection in the adapted frame {d_i, d/dy^sigma_J}.

    The base part pairs only with dx atoms (d_i hook dx^j = delta); the
    vertical part pairs only with omega atoms (d/dy^sigma_J hook
    omega^nu_K = delta delta).  The prolong module builds prolonged
    fields in this frame directly, from their characteristic.
    """

    space: JetSpace
    base: Mapping[int, sp.Expr] = field(default_factory=dict)
    vertical: Mapping[tuple[int, MultiIndex], sp.Expr] = field(default_factory=dict)


def unit_vertical(space: JetSpace, sigma: int,
                  J: MultiIndex = MultiIndex()) -> AdaptedVectorField:
    """The frame field d/dy^sigma_J."""
    return AdaptedVectorField(space, {}, {(sigma, J): sp.Integer(1)})


def total_field(space: JetSpace, i: int) -> AdaptedVectorField:
    """The total-derivative frame field d_i."""
    return AdaptedVectorField(space, {i: sp.Integer(1)}, {})


def contract(X: AdaptedVectorField, rho: Form) -> Form:
    """Interior product with graded sign bookkeeping."""
    if X.space != rho.space:
        raise ValueError("field and form live on different spaces")
    terms: dict[tuple[Atom, ...], sp.Expr] = {}
    for atoms, coeff in rho.terms.items():
        for p, a in enumerate(atoms):
            if isinstance(a, Dx):
                comp = X.base.get(a.i)
            else:
                comp = X.vertical.get((a.sigma, a.J))
            if comp is None or comp == 0:
                continue
            rest = atoms[:p] + atoms[p + 1:]
            terms.setdefault(rest, []).append(((-1) ** p) * comp * coeff)
    order = rho.order
    for comp in list(X.base.values()) + list(X.vertical.values()):
        order = max(order, rho.space.jet_order(comp))
    return Form(rho.space, rho.degree - 1, terms, order=order, _checked=True)


def is_strongly_contact(rho: Form) -> Optional[bool]:
    """p_{q-n} rho = 0, defined for degree q > n; None means unknown."""
    k = rho.degree - rho.space.n
    if k <= 0:
        raise ValueError("strong contactness needs degree > n")
    return contact_component(rho, k).is_zero()


# serialization


def form_to_json(rho: Form) -> dict:
    terms = []
    for atoms in sorted(rho.terms, key=lambda t: [a.sort_key for a in t]):
        atom_nodes = []
        for a in atoms:
            if isinstance(a, Dx):
                atom_nodes.append({"kind": "dx", "i": a.i})
            else:
                atom_nodes.append({"kind": "omega", "sigma": a.sigma,
                                   "J": list(a.J.entries)})
        terms.append({"coeff": symexpr.expr_to_json(rho.terms[atoms]),
                      "atoms": atom_nodes})
    return {"order": rho.order, "degree": rho.degree, "terms": terms}


def form_from_json(space: JetSpace, node: dict) -> Form:
    terms: dict[tuple[Atom, ...], sp.Expr] = {}
    for t in node["terms"]:
        atoms = []
        for a in t["atoms"]:
            if a["kind"] == "dx":
                atoms.append(Dx(a["i"]))
            else:
                atoms.append(Omega(a["sigma"], MultiIndex(tuple(a["J"]))))
        terms[tuple(atoms)] = symexpr.expr_from_json(t["coeff"])
    return Form(space, node["degree"], terms, order=node["order"])
