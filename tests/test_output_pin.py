"""Pinned library outputs: a sha256 over srepr(expand(c)) of every
coefficient, with its atoms, degree and order tag, for a fixed seeded
grid.  An optimisation of the integration by parts or of form
construction must leave every digest as it is.

The digests hold for sympy 1.14.0 (srepr and the canonical argument
order of expand are sympy's); another sympy version may print the same
expressions differently.
"""

import hashlib
import random

import pytest
import sympy as sp

from varseq import forms as fm
from varseq import symexpr, variational as vr
from varseq.jet_space import JetSpace, enumerate_coordinates

from test_forms import random_form

_SPACES = {"mech": JetSpace(("t",), ("q",)),
           "mech2": JetSpace(("t",), ("a", "b")),
           "field2": JetSpace(("t", "x"), ("v", "w"))}


def _digest(rho: fm.Form) -> str:
    h = hashlib.sha256(b"%d %d\n" % (rho.degree, rho.order))
    for atoms in sorted(rho.terms, key=lambda t: [a.sort_key for a in t]):
        h.update(("%r: %s\n" % (atoms, sp.srepr(sp.expand(rho.terms[atoms]))))
                 .encode())
    return h.hexdigest()[:16]


def _random_forms(name):
    """Random k-contact forms (k = 1, 2) on J^1 to J^3, and one of mixed
    contact degree."""
    space = _SPACES[name]
    rng = random.Random(sum(map(ord, name)))
    n = space.n
    return [random_form(space, n + k, order, rng, contact=contact)
            for k, order, contact in ((1, 1, 1), (1, 2, 1), (2, 2, 2),
                                      (1, 3, 1), (2, 3, 2), (1, 2, None))]


RANDOM_PINS = {
    "mech": ["96e0ff6b18ae7792", "f4a8ae8e74ddfb89", "5a07dd173c1dcff9",
             "cb70a1c4e98ae747", "41af6d5dae028577", "62cd4796be66340c",
             "515552e2d1b14728", "f65ceaae246de021", "36f561b188255f3f",
             "590c02574bfafb08", "f6bd000f5a4ac3b0", "67eae9338602db48",
             "635f22a041505f5a", "2fd7c11704a8040f", "5179e3e6c1bcfa9f",
             "801992f796b2887d", "5e01abf240f9842c", "fe79dd237a55cf43"],
    "mech2": ["e54b6f5ec0c043ef", "f4a8ae8e74ddfb89", "e6bc32e4b8c16103",
              "7eb256c70f7cef3d", "df7a8c2a8b604fd0", "dc523ce146395900",
              "6becfc2cdca62dc9", "f65ceaae246de021", "9c52fdd4d6ef2402",
              "8bd0f037502f379d", "086b8b8c35be5b37", "5c0e9fc5f89cd663",
              "520ddcb9496fe87c", "3db5a438d83f0a2e", "0343b86cd8ba6d8a",
              "54e2466e3b516446", "f4a8ae8e74ddfb89", "54e2466e3b516446"],
    "field2": ["7f268c1352c5c5ba", "4516f6eaaa675488", "4b84874e2b2c3d2d",
               "5a3cad5b21550cfe", "5f2d4379f7a99e05", "cce8235b05c6e71f",
               "6dafb9a30f449431", "720f287f09ea0e7f", "dab93085107ec68b",
               "3917bd52abd1e0ef", "07bb9817a93a5d48", "3abdb8cc35399634",
               "782687e808b25e2d", "994d5ee491c4dc05", "9646db4a3993d48e",
               "f447e635ef60d86f", "4516f6eaaa675488", "ece3d232c1ca9ef8"],
}


@pytest.mark.parametrize("name", sorted(RANDOM_PINS))
def test_interior_euler_residual_cartan_of_random_forms(name):
    got = []
    for rho in _random_forms(name):
        got += [_digest(vr.interior_euler(rho).form),
                _digest(vr.residual(rho)), _digest(vr.cartan_form(rho))]
    assert got == RANDOM_PINS[name]


def _opaque_lagrangian(n, m, r):
    space = JetSpace(("t", "x")[:n], ("u", "v")[:m])
    slots = [space.symbol(c) for c in enumerate_coordinates(space, r)]
    return symexpr.opaque("L", *slots) * fm.omega0(space)


OPAQUE_PINS = {
    (1, 1, 1): ["2007ae9a2390a98a", "1e79c5c0039e5eec", "1f2bbb6596fac0e3"],
    (1, 1, 2): ["4bed16394e613ae2", "e76213d16d0bdeae", "6a6ae3aa3cc669fd"],
    (1, 2, 1): ["7f676518d0cd5861", "535ed2e2ea62a3d4", "1f2bbb6596fac0e3"],
    (1, 2, 2): ["71d681b69913018b", "650194a0e0334f3b"],
    (2, 1, 1): ["e8f4b47621a2e74b", "4e059a340849a13d", "77c185504ee5b530"],
    (2, 1, 2): ["c711d60aaaecff1b", "6911961110ef552b"],
    (2, 2, 1): ["b87e532631aba817", "60b6e493be7c1d07", "03578c96b90d6112"],
    (2, 2, 2): ["913758dd9a7ef797", "d1cfeabc08ee92ee"],
}


@pytest.mark.parametrize("nmr", sorted(OPAQUE_PINS), ids=str)
def test_euler_lagrange_cartan_helmholtz_of_opaque_lagrangians(nmr):
    # the grid of the opaque-field benchmark workload; Helmholtz where it
    # takes under a second (r = 1 and (1, 1, 2))
    lam = _opaque_lagrangian(*nmr)
    el = vr.euler_lagrange(lam).form
    got = [_digest(el), _digest(vr.cartan_form(lam))]
    if nmr[2] == 1 or nmr[:2] == (1, 1):
        got.append(_digest(vr.helmholtz(el).form))
    assert got == OPAQUE_PINS[nmr]
