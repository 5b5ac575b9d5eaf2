"""Randomized exact-rational identity probing.

Substitutes random nonzero rational values for jet coordinates and
parameters to decide equalities the canonicalizer reports as unknown
(radical-bearing fixtures), and to cross-check symbolic identities.
Verdicts of "unequal" always carry a reproducible witness assignment.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import sympy as sp

from .jet_space import JetSpace, enumerate_coordinates
from . import symexpr
from .forms import Form

__all__ = [
    "ProbeConfig",
    "ProbeVerdict",
    "random_assignment",
    "exprs_equal_probabilistic",
    "forms_equal_probabilistic",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Parameters of the randomized probe."""

    seed: int = 0
    trials: int = 20
    bound: int = 100
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of a probabilistic comparison."""

    status: str  # "equal", "unequal", or "unknown"
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.status == "equal"


def _random_rational(rng: random.Random, bound: int) -> sp.Rational:
    num = rng.randint(1, bound) * rng.choice((1, -1))
    den = rng.randint(1, bound)
    return sp.Rational(num, den)


def random_assignment(space: JetSpace, order: int, cfg: ProbeConfig,
                      params: tuple = (), trial: int = 0) -> dict:
    """A deterministic nonzero rational assignment for J^order coordinates
    (and any extra parameter symbols), varying with cfg.seed and trial."""
    # zlib.crc32 keyed seed: stable across processes, unlike hash()
    key = repr((cfg.seed, trial, space.base_names, space.fibre_names, order))
    rng = random.Random(zlib.crc32(key.encode()))
    assignment = {}
    for coord in enumerate_coordinates(space, order):
        assignment[space.symbol(coord)] = _random_rational(rng, cfg.bound)
    for p in params:
        assignment[sp.Symbol(str(p))] = _random_rational(rng, cfg.bound)
    return assignment


def _eval_diff(space, diff, assignment, instantiations, tolerance):
    """Return True when diff vanishes at the assignment, else the value."""
    value = symexpr.eval_at(space, diff, assignment, instantiations)
    if isinstance(value, float):
        return True if abs(value) <= tolerance else value
    return True if value == 0 else value


def exprs_equal_probabilistic(space: JetSpace, e1, e2, cfg: ProbeConfig,
                              order: Optional[int] = None,
                              params: tuple = (),
                              instantiations: Optional[Mapping] = None,
                              accept: Optional[Callable[[dict], bool]] = None
                              ) -> ProbeVerdict:
    """Probabilistic scalar equality over random rational assignments.

    ``accept`` optionally rejects assignments (e.g. to keep a radicand
    positive); rejected trials are re-drawn deterministically.
    """
    e1 = sp.sympify(e1)
    e2 = sp.sympify(e2)
    diff = e1 - e2
    if diff == 0:
        return ProbeVerdict("equal")
    if order is None:
        order = space.jet_order(diff)
    trial = 0
    done = 0
    while done < cfg.trials:
        assignment = random_assignment(space, order, cfg, params, trial)
        trial += 1
        if trial > 100 * cfg.trials:
            return ProbeVerdict("unknown")
        if accept is not None and not accept(assignment):
            continue
        verdict = _eval_diff(space, diff, assignment, instantiations,
                             cfg.tolerance)
        if verdict is not True:
            witness = dict(assignment)
            witness["__value__"] = verdict
            return ProbeVerdict("unequal", witness)
        done += 1
    return ProbeVerdict("equal")


def forms_equal_probabilistic(alpha: Form, beta: Form, cfg: ProbeConfig,
                              params: tuple = (),
                              instantiations: Optional[Mapping] = None,
                              accept: Optional[Callable[[dict], bool]] = None
                              ) -> ProbeVerdict:
    """Probabilistic equality of forms, coefficient by coefficient."""
    if alpha.space != beta.space or alpha.degree != beta.degree:
        return ProbeVerdict("unequal", {"__value__": "degree/space mismatch"})
    space = alpha.space
    diff = alpha - beta
    for atoms, coeff in diff.terms.items():
        verdict = exprs_equal_probabilistic(
            space, coeff, 0, cfg, order=diff.order, params=params,
            instantiations=instantiations, accept=accept)
        if verdict.status != "equal":
            if verdict.witness is not None:
                verdict.witness["__atoms__"] = atoms
            return verdict
    return ProbeVerdict("equal")
