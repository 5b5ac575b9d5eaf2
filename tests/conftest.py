import random
import time

import pytest
import sympy as sp

from varseq.jet_space import JetSpace, enumerate_coordinates


@pytest.fixture
def mech():
    return JetSpace(("t",), ("q",))


@pytest.fixture
def mech2():
    return JetSpace(("t",), ("a", "b"))


@pytest.fixture
def field2():
    return JetSpace(("t", "x"), ("v", "w"))


def random_polynomial(space: JetSpace, order: int, rng: random.Random,
                      terms: int = 2, degree: int = 2) -> sp.Expr:
    """A small random polynomial in the coordinates of J^order."""
    symbols = [space.symbol(c) for c in enumerate_coordinates(space, order)]
    out = sp.Integer(0)
    for _ in range(terms):
        coeff = sp.Integer(rng.randint(-3, 3))
        monomial = coeff
        for _ in range(rng.randint(0, degree)):
            monomial *= rng.choice(symbols)
        out += monomial
    return out


class Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                "budget exceeded: %.2fs >= %ss" % (elapsed, self.seconds))
        return False
