"""Jet spaces over a trivially fibred manifold R^n x R^m -> R^n.

A fixed global chart is assumed throughout: base coordinates x^i
(i = 1..n), fibre coordinates y^sigma (sigma = 1..m), and the induced
jet coordinates y^sigma_J for canonical multi-indices J.  Multi-indices
are stored in non-decreasing order and carry no multiplicity weights;
every sum over |J| elsewhere in the package runs over canonical
multi-indices.

Names and coordinates are in bijection.  y^sigma_J is spelled only
``<fibre>_<base names of J, in order>`` (``u_tx`` for J = (1, 2) over
bases ``t, x``); an empty, unreadable or decreasing suffix (``u_``,
``u_xt``) names no coordinate.  No base name may be a prefix of
another, so a suffix reads left to right with one match at each step.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

import sympy as sp

__all__ = [
    "MultiIndex",
    "JetCoordinate",
    "JetSpace",
    "count_multiindices",
    "multiindices",
    "enumerate_coordinates",
]


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A canonical (non-decreasing) symmetric multi-index over 1..n."""

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(not isinstance(i, int) or i < 1 for i in self.entries):
            raise ValueError("multi-index entries must be positive integers")
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("multi-index entries must be non-decreasing")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return len(self.entries)

    def append(self, i: int) -> "MultiIndex":
        """Canonical juxtaposition J -> Ji (sorted merge)."""
        if i < 1:
            raise ValueError("base index out of range: %r" % (i,))
        return MultiIndex(tuple(sorted(self.entries + (i,))))

    def drop_last(self) -> tuple["MultiIndex", int]:
        """Split J = K i with i the largest entry; requires |J| >= 1."""
        if not self.entries:
            raise ValueError("cannot split an empty multi-index")
        return MultiIndex(self.entries[:-1]), self.entries[-1]


@dataclass(frozen=True)
class JetCoordinate:
    """A base coordinate x^i or a jet coordinate y^sigma_J."""

    kind: str  # "base" or "fibre"
    index: int  # i for base, sigma for fibre
    J: MultiIndex = MultiIndex()

    def __post_init__(self) -> None:
        if self.kind not in ("base", "fibre"):
            raise ValueError("kind must be 'base' or 'fibre'")
        if self.kind == "base" and len(self.J):
            raise ValueError("base coordinates carry no multi-index")

    @property
    def order(self) -> int:
        return len(self.J) if self.kind == "fibre" else 0


# Jet orders of recently walked composite subexpressions, one table for
# all spaces: id(expr) -> (expr, space, order).  An entry answers only
# for that very object (holding it keeps its id from being reused) and
# that space instance.
# Identity, not sympy's ==, is also exact where == is coarser than the
# free symbols: Subs(f(x), x, 1) == Subs(f(x), x, 2).  The bound is fixed
# and process-wide, since every entry keeps an otherwise dead subtree
# alive; the memo pays off on subexpressions seen again shortly
# (coefficients rebuilt into new forms).
_ORDER_MEMO_SIZE = 1024
_ORDER_MEMO: OrderedDict[int, tuple[sp.Basic, "JetSpace", int]] = \
    OrderedDict()

# free_symbols of a node whose class keeps Basic's definition is the
# union of its args' free_symbols.
_ARGS_UNION = sp.Basic.free_symbols


def count_multiindices(n: int, k: int) -> int:
    """Number of canonical multi-indices of length k over 1..n."""
    if n < 1 or k < 0:
        raise ValueError("require n >= 1 and k >= 0")
    return math.comb(n + k - 1, k)


def multiindices(n: int, k: int) -> Iterator[MultiIndex]:
    """All canonical multi-indices of length k over 1..n, lexicographic."""
    for entries in itertools.combinations_with_replacement(range(1, n + 1), k):
        yield MultiIndex(entries)


class JetSpace:
    """The fibred manifold R^n x R^m -> R^n with named coordinates.

    Jet coordinate symbols are plain sympy symbols named
    ``<fibre>_<base names>`` (for example ``q_tt`` or ``v_tx``); the
    space resolves symbols back to :class:`JetCoordinate` values.  Base
    names must be prefix-free.
    """

    def __init__(self, base_names: tuple[str, ...] | list[str],
                 fibre_names: tuple[str, ...] | list[str]) -> None:
        base_names = tuple(base_names)
        fibre_names = tuple(fibre_names)
        if len(base_names) < 1:
            raise ValueError("base dimension must be >= 1")
        if len(fibre_names) < 1:
            raise ValueError("fibre dimension must be >= 1")
        names = base_names + fibre_names
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be pairwise distinct")
        for name in names:
            if not name.isidentifier() or "_" in name:
                raise ValueError("coordinate names must be identifiers "
                                 "without underscores: %r" % (name,))
        for a, b in itertools.permutations(base_names, 2):
            if b.startswith(a):
                raise ValueError("base name %r is a prefix of base name %r"
                                 % (a, b))
        self.base_names = base_names
        self.fibre_names = fibre_names
        self.n = len(base_names)
        self.m = len(fibre_names)
        self._parsed: dict[str, Optional[JetCoordinate]] = {}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, JetSpace)
                and self.base_names == other.base_names
                and self.fibre_names == other.fibre_names)

    def __hash__(self) -> int:
        return hash((self.base_names, self.fibre_names))

    def __repr__(self) -> str:
        return "JetSpace(base=%r, fibre=%r)" % (self.base_names,
                                                self.fibre_names)

    # symbol construction

    def base_symbol(self, i: int) -> sp.Symbol:
        if not 1 <= i <= self.n:
            raise ValueError("base index out of range: %r" % (i,))
        return sp.Symbol(self.base_names[i - 1])

    def fibre_symbol(self, sigma: int, J: MultiIndex = MultiIndex()) -> sp.Symbol:
        if not 1 <= sigma <= self.m:
            raise ValueError("fibre index out of range: %r" % (sigma,))
        if any(i > self.n for i in J.entries):
            raise ValueError("multi-index entry out of range: %r" % (J,))
        name = self.fibre_names[sigma - 1]
        if len(J):
            name += "_" + "".join(self.base_names[i - 1] for i in J.entries)
        return sp.Symbol(name)

    def symbol(self, coord: JetCoordinate) -> sp.Symbol:
        if coord.kind == "base":
            return self.base_symbol(coord.index)
        return self.fibre_symbol(coord.index, coord.J)

    # symbol resolution

    def coordinate_of(self, symbol: sp.Symbol) -> Optional[JetCoordinate]:
        """Resolve a symbol to a coordinate of this space, else None."""
        name = symbol.name if isinstance(symbol, sp.Symbol) else str(symbol)
        if name not in self._parsed:
            self._parsed[name] = self._parse_name(name)
        return self._parsed[name]

    def _parse_name(self, name: str) -> Optional[JetCoordinate]:
        if name in self.base_names:
            return JetCoordinate("base", self.base_names.index(name) + 1)
        head, underscore, tail = name.partition("_")
        if head not in self.fibre_names or (underscore and not tail):
            return None
        entries: tuple[int, ...] = ()
        while tail:
            i = next((i for i, base in enumerate(self.base_names, start=1)
                      if tail.startswith(base)), 0)
            if i < max(entries, default=1):  # no base name, or decreasing
                return None
            entries += (i,)
            tail = tail[len(self.base_names[i - 1]):]
        return JetCoordinate("fibre", self.fibre_names.index(head) + 1,
                             MultiIndex(entries))

    def jet_order(self, expr: sp.Expr) -> int:
        """Highest jet order among coordinates appearing in expr.

        Equals the maximum of ``coordinate_of(s).order`` over the
        ``free_symbols`` of expr (0 when none resolve), computed by one
        walk that memoizes composite subexpressions, by identity, in one
        process-wide LRU table of at most 1024 entries.
        """
        return self._order_of(sp.sympify(expr))

    def _order_of(self, e: sp.Basic) -> int:
        if e.is_Symbol:
            coord = self.coordinate_of(e)
            return 0 if coord is None else coord.order
        if not e.args:
            return 0
        key = id(e)
        hit = _ORDER_MEMO.get(key)
        if hit is not None and hit[1] is self:
            _ORDER_MEMO.move_to_end(key)
            return hit[2]
        if isinstance(e, sp.Derivative):
            # the variables are bound: they count only inside e.expr
            order = max(self._order_of(a) for a in
                        (e.expr,) + tuple(c for _, c in e.variable_count))
        elif type(e).free_symbols is _ARGS_UNION:
            order = max(self._order_of(a) for a in e.args)
        else:
            # binds variables (Subs, Integral, Lambda, ...)
            order = 0
            for s in e.free_symbols:
                coord = self.coordinate_of(s)
                if coord is not None:
                    order = max(order, coord.order)
        _ORDER_MEMO[key] = (e, self, order)
        if len(_ORDER_MEMO) > _ORDER_MEMO_SIZE:
            _ORDER_MEMO.popitem(last=False)
        return order


def enumerate_coordinates(space: JetSpace, r: int) -> list[JetCoordinate]:
    """All coordinates on J^r Y, deterministically ordered.

    Order: base coordinates, then fibre coordinates by (|J|, sigma, J).
    """
    if r < 0:
        raise ValueError("order must be >= 0")
    coords = [JetCoordinate("base", i) for i in range(1, space.n + 1)]
    for k in range(r + 1):
        for sigma in range(1, space.m + 1):
            for J in multiindices(space.n, k):
                coords.append(JetCoordinate("fibre", sigma, J))
    return coords
