"""Vector fields, jet prolongation, Lie derivatives, and currents.

A projectable (or generalized) field xi^i d/dx^i + Xi^sigma d/dy^sigma
is prolonged through its characteristic Q^sigma = Xi^sigma - y^sigma_i xi^i:
J^r Xi = xi^i d_i + V^sigma_J d/dy^sigma_J with V^sigma_J = d_J Q^sigma,
which is the field in the contact-adapted frame (Olver, Applications
of Lie Groups to Differential Equations, 2.3 and 5.1).  Lie derivatives
use the Cartan formula in that frame, where the horizontal/vertical
split of a prolonged field is immediate.
The classical first-variation decomposition, Noether currents, and the
variational Lie-derivative identities are provided as exact
constructions and checkable residues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import sympy as sp

from .jet_space import JetSpace, MultiIndex, multiindices
from . import forms as fm
from . import symexpr
from . import variational
from .forms import AdaptedVectorField, Form

__all__ = [
    "ProjectableVectorField",
    "ProlongedVectorField",
    "prolong",
    "split_HV",
    "adapted_field",
    "lie_derivative",
    "noether_current",
    "first_variation_split",
    "symmetry_check",
    "higher_lie_identity_check",
    "krbek_identity_check",
    "nbh_current",
]


@dataclass(frozen=True)
class ProjectableVectorField:
    """A field xi^i d/dx^i + Xi^sigma d/dy^sigma on Y.

    xi^i may depend on base coordinates only (projectability); Xi^sigma
    on (x, y), or on higher jet coordinates when ``generalized`` is set.
    """

    space: JetSpace
    xi: Mapping[int, sp.Expr] = field(default_factory=dict)
    Xi: Mapping[int, sp.Expr] = field(default_factory=dict)
    generalized: bool = False

    def __post_init__(self) -> None:
        space = self.space
        object.__setattr__(self, "xi",
                           {i: sp.sympify(e) for i, e in self.xi.items()
                            if sp.sympify(e) != 0})
        object.__setattr__(self, "Xi",
                           {s: sp.sympify(e) for s, e in self.Xi.items()
                            if sp.sympify(e) != 0})
        for i, e in self.xi.items():
            if not 1 <= i <= space.n:
                raise ValueError("base index out of range: %r" % (i,))
            for s in e.free_symbols:
                coord = space.coordinate_of(s)
                if coord is not None and coord.kind != "base":
                    raise ValueError(
                        "xi components must depend on base coordinates only")
        max_order = None if self.generalized else 0
        for sigma, e in self.Xi.items():
            if not 1 <= sigma <= space.m:
                raise ValueError("fibre index out of range: %r" % (sigma,))
            if max_order is not None and space.jet_order(e) > max_order:
                raise ValueError("Xi components may not depend on jet "
                                 "coordinates unless generalized")


@dataclass(frozen=True)
class ProlongedVectorField:
    """J^r Xi = xi^i d_i + V^sigma_J d/dy^sigma_J for |J| <= r.

    ``vertical`` holds the prolonged characteristic V^sigma_J = d_J Q^sigma,
    Q^sigma = Xi^sigma - y^sigma_i xi^i: the pairings of J^r Xi with the
    contact coframe.  Zero components are not stored.
    """

    space: JetSpace
    order: int
    xi: Mapping[int, sp.Expr]
    vertical: Mapping[tuple[int, MultiIndex], sp.Expr]

    def component(self, sigma: int, J: MultiIndex = MultiIndex()) -> sp.Expr:
        """The coordinate-frame component Xi^sigma_J = V^sigma_J
        + y^sigma_{Ji} xi^i."""
        return self.vertical.get((sigma, J), sp.Integer(0)) + sp.Add(
            *(self.space.fibre_symbol(sigma, J.append(i)) * x
              for i, x in self.xi.items()))


def prolong(X: ProjectableVectorField, r: int) -> ProlongedVectorField:
    """The r-th jet prolongation of a projectable field.

    V^sigma_{Ki} = d_i V^sigma_K from V^sigma = Q^sigma, one index at a
    time: total derivatives commute, so any splitting of a canonical
    multi-index gives the same component.
    """
    if r < 0:
        raise ValueError("prolongation order must be >= 0")
    space = X.space
    V: dict[tuple[int, MultiIndex], sp.Expr] = {}
    for sigma in range(1, space.m + 1):
        V[(sigma, MultiIndex())] = X.Xi.get(sigma, sp.Integer(0)) - sp.Add(
            *(space.fibre_symbol(sigma, MultiIndex((i,))) * x
              for i, x in X.xi.items()))
        for k in range(1, r + 1):
            for K in multiindices(space.n, k):
                J, i = K.drop_last()
                V[(sigma, K)] = symexpr.total_derivative(
                    space, V[(sigma, J)], i)
    V = {key: e for key, e in V.items() if e != 0}
    return ProlongedVectorField(space, r, dict(X.xi), V)


def split_HV(Z: ProlongedVectorField) -> tuple[AdaptedVectorField,
                                               AdaptedVectorField]:
    """Z = Z_H + Z_V along the projection, in the adapted frame: Z_H =
    xi^i d_i, and Z_V has the characteristic components V^sigma_J.
    Both share Z's mappings."""
    return (AdaptedVectorField(Z.space, Z.xi, {}),
            AdaptedVectorField(Z.space, {}, Z.vertical))


def adapted_field(Z: ProlongedVectorField) -> AdaptedVectorField:
    """The full field in the adapted frame {d_i, contact verticals}."""
    return AdaptedVectorField(Z.space, Z.xi, Z.vertical)


def _prolonged(X: Union[ProjectableVectorField, ProlongedVectorField],
               order: int) -> ProlongedVectorField:
    if isinstance(X, ProlongedVectorField):
        if X.order < order:
            raise ValueError("prolonged field order %d below required %d"
                             % (X.order, order))
        return X
    return prolong(X, order)


def lie_derivative(X: Union[ProjectableVectorField, ProlongedVectorField],
                   rho: Form) -> Form:
    """Cartan formula L_Z rho = Z hook d rho + d(Z hook rho)."""
    Z = _prolonged(X, rho.order)
    V = adapted_field(Z)
    part1 = fm.contract(V, fm.exterior_d(rho))
    part2 = fm.exterior_d(fm.contract(V, rho))
    return part1 + part2


def noether_current(rho: Form,
                    X: Union[ProjectableVectorField, ProlongedVectorField],
                    check_lepage: bool = True) -> tuple[Form, Form]:
    """The current of a Lepage form: Phi = J Xi hook rho.

    Returns (horizontal part, full contraction).  The horizontal part is
    the classical Noether current; for a symmetry its d_H vanishes along
    extremals.
    """
    if check_lepage:
        verdict = variational.is_lepage(rho)
        if verdict is False:
            raise ValueError("noether_current expects a Lepage form")
    Z = _prolonged(X, max(rho.order - 1, 0))
    full = fm.contract(adapted_field(Z), rho)
    return fm.horizontalize(full), full


def first_variation_split(lam: Form,
                          X: Union[ProjectableVectorField,
                                   ProlongedVectorField]
                          ) -> tuple[Form, Form, Form]:
    """The first-variation formula for a Lagrangian.

    Returns (el_term, boundary, current) with

        L_{J Xi} lambda = el_term + boundary,
        el_term = h(J Xi hook d theta),  boundary = h d(J Xi hook theta),

    theta the Cartan form of lambda, and current = h(J Xi hook theta)
    the canonical boundary current (boundary = d_H current).  Only
    p_1 d theta = d_V(p_0 theta) + d_H(p_1 theta) survives the hook and h.
    """
    if lam.degree != lam.space.n:
        raise ValueError("Lagrangian must be an n-form")
    theta = variational.cartan_form(lam)
    Z = _prolonged(X, theta.order + 1)
    V = adapted_field(Z)
    p1_d_theta = (fm.d_V(fm.contact_component(theta, 0))
                  + fm.d_H(fm.contact_component(theta, 1)))
    el_term = fm.horizontalize(fm.contract(V, p1_d_theta))
    current = fm.horizontalize(fm.contract(V, theta))
    boundary = fm.d_H(current)
    return el_term, boundary, current


def symmetry_check(X: Union[ProjectableVectorField, ProlongedVectorField],
                   sigma: Union[Form, variational.SourceForm]
                   ) -> Optional[bool]:
    """Exact-zero test of the Lie derivative (class level for source
    forms); None means the verdict needs numeric probing."""
    form = variational._as_form(sigma)
    L = lie_derivative(X, form)
    if form.degree > form.space.n:
        L = variational.interior_euler(L).form
    return L.is_zero()


def higher_lie_identity_check(X: Union[ProjectableVectorField,
                                       ProlongedVectorField],
                              rho: Form) -> Form:
    """Residue of the Lie-derivative decomposition at the class level.

    Computes I(L_{J Xi} I(rho) - J Xi_V hook I(d I(rho))
    - I(d(J Xi_V hook I(rho)))); the contract is residue = 0.
    """
    k = rho.degree - rho.space.n
    if k < 1:
        raise ValueError("requires a form of degree > n")
    I_rho = variational.interior_euler(rho).form
    order = I_rho.order + 2
    Z = _prolonged(X, order)
    _, Z_V = split_HV(Z)
    L = lie_derivative(Z, I_rho)
    t1 = fm.contract(Z_V, variational.interior_euler(fm.exterior_d(I_rho)).form)
    t2 = variational.interior_euler(
        fm.exterior_d(fm.contract(Z_V, I_rho))).form
    residue = L - t1 - t2
    return variational.interior_euler(residue).form


def krbek_identity_check(X: Union[ProjectableVectorField,
                                  ProlongedVectorField],
                         rho: Form, i: int) -> Form:
    """Residue of J Xi hook p_i d p_i rho + p_{i-1} d (J Xi hook p_i rho).

    Xi must be vertical; the contract is residue = 0.
    """
    if X.xi:
        raise ValueError("the identity holds for vertical fields")
    if not 1 <= i <= rho.degree:
        raise ValueError("contact degree out of range")
    V = adapted_field(_prolonged(X, rho.order + 1))
    p_i = fm.contact_component(rho, i)
    t1 = fm.contract(V, fm.d_H(p_i))
    t2 = fm.d_H(fm.contract(V, p_i))
    return t1 + t2


def nbh_current(X: Union[ProjectableVectorField, ProlongedVectorField],
                eps: Union[Form, variational.SourceForm]
                ) -> tuple[Form, dict[int, sp.Expr]]:
    """A Noether-Bessel-Hagen current of a locally variational form.

    For a dynamical form eps = E_sigma omega^sigma ^ omega_0 with
    helmholtz(eps) = 0 and a class-level symmetry Xi, returns
    (current, multiples) where current is a horizontal (n-1)-form and

        d_H current = sum_sigma multiples[sigma] * E_sigma * omega_0

    exactly, so the current is conserved along extremals.  Built from
    the Tonti Lagrangian lambda = h(A eps): the boundary current of the
    first variation minus a primitive of L_{J Xi} lambda.  Refuses only
    a definitely nonzero Helmholtz form; when its verdict is unknown the
    construction goes ahead, valid if eps is locally variational.
    """
    space = eps.space
    form = variational._as_form(eps)
    if form.degree != space.n + 1:
        raise ValueError("expects a dynamical form")
    if variational.helmholtz(form).is_zero() is False:
        raise ValueError("the source form is not locally variational")
    lam = fm.horizontalize(variational.contact_homotopy(form))
    el_term, boundary, current = first_variation_split(lam, X)
    L_lam = el_term + boundary
    if L_lam.is_zero() is True:
        beta = fm.zero(space, space.n - 1, current.order)
    else:
        flag, beta = variational.is_variationally_trivial(L_lam)
        if flag is False:
            raise ValueError("the field is not a class-level symmetry")
        if flag is None:
            raise ValueError("cannot decide whether the field is a "
                             "class-level symmetry")
    out = current - beta
    # E-multiples: d_H(current - beta) = -Q^sigma E_sigma omega_0
    multiples = {sigma: -Q for (sigma, J), Q
                 in _prolonged(X, 0).vertical.items() if not J}
    return out, multiples
