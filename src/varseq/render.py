"""Text, LaTeX, and JSON emitters for scalars, forms, and model files.

The text format for forms coincides with the .jv expression syntax, so
every text rendering can be pasted back into a model file; the model
renderer produces a full .jv document with ``parse(render(parse(t))) ==
parse(t)``.
"""

from __future__ import annotations

import sympy as sp

from .jet_space import JetSpace
from .forms import Dx, Form, _atom_str, form_to_json
from .dsl import ModelFile

__all__ = [
    "scalar_text",
    "scalar_latex",
    "form_text",
    "form_latex",
    "form_json",
    "render_model",
]


def scalar_text(expr) -> str:
    return sp.sstr(sp.sympify(expr), order="lex")


def scalar_latex(expr) -> str:
    return sp.latex(sp.sympify(expr))


def _atom_latex(space: JetSpace, a) -> str:
    if isinstance(a, Dx):
        return r"\mathrm{d}%s" % sp.latex(sp.Symbol(space.base_names[a.i - 1]))
    name = sp.latex(sp.Symbol(space.fibre_names[a.sigma - 1]))
    sub = "".join(space.base_names[i - 1] for i in a.J.entries)
    if sub:
        return r"\omega^{%s}_{%s}" % (name, sub)
    return r"\omega^{%s}" % name


def _render(rho: Form, coeff: str, scalar, atom, wedge: str,
            times: str) -> str:
    """The terms of rho in atom order, as ``coeff % scalar(c)`` followed
    by ``times`` and the atoms joined by ``wedge``."""
    rho = rho.canonical()
    bits = []
    for atoms in sorted(rho.terms, key=lambda t: [a.sort_key for a in t]):
        atom_str = wedge.join(atom(rho.space, a) for a in atoms)
        bits.append(coeff % scalar(rho.terms[atoms])
                    + (times + atom_str if atom_str else ""))
    return " + ".join(bits) or "0"


def form_text(rho: Form) -> str:
    return _render(rho, "(%s)", scalar_text, _atom_str, "^", " * ")


def form_latex(rho: Form) -> str:
    return _render(rho, r"\left(%s\right)", scalar_latex, _atom_latex,
                   r" \wedge ", r"\, ")


def form_json(rho: Form) -> dict:
    return form_to_json(rho.canonical())


def render_model(model: ModelFile) -> str:
    """Emit a .jv document equivalent to the parsed model."""
    space = model.space
    lines = ["space { base %s; fibre %s; }" % (" ".join(space.base_names),
                                               " ".join(space.fibre_names))]
    if model.params:
        lines.append("param %s;" % " ".join(model.params))
    for name, slots in model.opaques.items():
        lines.append("opaque %s(%s);" % (name, ", ".join(map(str, slots))))
    for name, rho in model.forms.items():
        lines.append("form %s : degree %d order %d = %s;"
                     % (name, rho.degree, rho.order, form_text(rho)))
    for name, X in model.fields.items():
        terms = []
        for i in sorted(X.xi):
            terms.append("(%s) * D(%s)" % (scalar_text(X.xi[i]),
                                           space.base_names[i - 1]))
        for sigma in sorted(X.Xi):
            terms.append("(%s) * D(%s)" % (scalar_text(X.Xi[sigma]),
                                           space.fibre_names[sigma - 1]))
        lines.append("field %s = %s;" % (name, " + ".join(terms) or "0"))
    return "\n".join(lines) + "\n"
