"""Randomized identity probing at rational points.

Substitutes random nonzero rational values for jet coordinates and
parameters to decide equalities the canonicalizer reports as unknown
(radical-bearing fixtures), and to cross-check symbolic identities.  The
difference is compiled once (:func:`symexpr.eval_at`'s evaluator) and
run per draw: exact on rational values, irrational ones in mpmath at a
fixed 30 digits, ``tolerance`` applying only to those inexact values.
Draws at a pole are re-drawn; "unequal" carries a reproducible witness.
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


def random_assignment(space: JetSpace, order: int, cfg: ProbeConfig,
                      params: tuple = (), trial: int = 0) -> dict:
    """A deterministic nonzero rational assignment for J^order coordinates
    (and any extra parameter symbols), varying with cfg.seed and trial."""
    return _draw(space, order, cfg, _symbols(space, order, params), trial)


def _symbols(space: JetSpace, order: int, params: tuple) -> list:
    return [space.symbol(c) for c in enumerate_coordinates(space, order)] \
        + [sp.Symbol(p) if isinstance(p, str) else p for p in params]


def _draw(space, order, cfg, symbols, trial) -> dict:
    # zlib.crc32 keyed seed: stable across processes, unlike hash()
    key = repr((cfg.seed, trial, space.base_names, space.fibre_names, order))
    rng = random.Random(zlib.crc32(key.encode()))
    return {s: sp.Rational(rng.randint(1, cfg.bound) * rng.choice((1, -1)),
                           rng.randint(1, cfg.bound)) for s in symbols}


def exprs_equal_probabilistic(space: JetSpace, e1, e2, cfg: ProbeConfig,
                              order: Optional[int] = None,
                              params: tuple = (),
                              instantiations: Optional[Mapping] = None,
                              accept: Optional[Callable[[dict], bool]] = None
                              ) -> ProbeVerdict:
    """Probabilistic scalar equality over random rational assignments.

    ``accept`` optionally rejects assignments (e.g. to keep a radicand
    positive); rejected and undefined draws are re-drawn, deterministically
    and up to 100 * cfg.trials draws in all.
    """
    diff = sp.sympify(e1) - sp.sympify(e2)
    if diff == 0:
        return ProbeVerdict("equal")
    if order is None:
        order = space.jet_order(diff)
    program = symexpr._compile(diff, instantiations)
    symbols = _symbols(space, order, params)
    done = 0
    for trial in range(100 * cfg.trials):
        assignment = _draw(space, order, cfg, symbols, trial)
        if accept is not None and not accept(assignment):
            continue
        try:
            value = symexpr._run(program, assignment)
        except symexpr.UndefinedAt:
            continue
        if abs(value) > (cfg.tolerance if isinstance(value, float) else 0):
            return ProbeVerdict("unequal", {**assignment, "__value__": value})
        done += 1
        if done == cfg.trials:
            return ProbeVerdict("equal")
    return ProbeVerdict("unknown")


def forms_equal_probabilistic(alpha: Form, beta: Form, cfg: ProbeConfig,
                              params: tuple = (),
                              instantiations: Optional[Mapping] = None,
                              accept: Optional[Callable[[dict], bool]] = None
                              ) -> ProbeVerdict:
    """Probabilistic equality of forms, coefficient by coefficient."""
    if alpha.space != beta.space or alpha.degree != beta.degree:
        return ProbeVerdict("unequal", {"__value__": "degree/space mismatch"})
    diff = alpha - beta
    for atoms, coeff in diff.terms.items():
        verdict = exprs_equal_probabilistic(
            alpha.space, coeff, 0, cfg, order=diff.order, params=params,
            instantiations=instantiations, accept=accept)
        if verdict.status != "equal":
            if verdict.witness is not None:
                verdict.witness["__atoms__"] = atoms
            return verdict
    return ProbeVerdict("equal")
