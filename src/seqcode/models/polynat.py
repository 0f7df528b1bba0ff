"""Polynomials with nonnegative integer coefficients, ordered lexicographically.

An element is a coefficient tuple, lowest degree first with no trailing
zeros, and () is zero.  ``add``, ``mul``, ``le`` and ``subtract`` on such
tuples are the one implementation: the lab's ``POLYNAT`` runs on them, and
``PolyNat``, the checked public type, wraps them.  The order compares the
lengths first and then reads the tuples from the highest position down, so
degree dominates and ties fall through to lower coefficients.

Under this order the carrier is a discretely ordered commutative semiring
with least element 0, but one without subtraction: 1 < X, yet z + 1 = X
would force a constant coefficient with z0 + 1 = 0.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from seqcode._decimal import decimal_str, parse_decimal


def add(a: tuple, b: tuple) -> tuple:
    """The sum: no trailing zero, since the top coefficient is a sum with a nonzero one."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)  # tuple() of a list is exact; of a map it resizes and bloats free lists
    for i, y in enumerate(b):
        out[i] += y
    return tuple(out)


def mul(a: tuple, b: tuple) -> tuple:
    """The product: no trailing zero, since the top coefficient is a product of nonzero ones."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return tuple(out)


def le(a: tuple, b: tuple) -> bool:
    """a <= b: the degree first, then the coefficients from the top down."""
    return len(a) < len(b) if len(a) != len(b) else a[::-1] <= b[::-1]


def subtract(p: tuple, q: tuple) -> Optional[tuple]:
    """The z with add(z, q) == p, or None when there is none.

    Exact decision: subtraction exists iff it exists coefficient by
    coefficient, since addition never mixes positions.
    """
    diffs = [x - y for x, y in itertools.zip_longest(p, q, fillvalue=0)]
    if any(d < 0 for d in diffs):
        return None
    while diffs and diffs[-1] == 0:
        diffs.pop()
    return tuple(diffs)


def to_json(cs: tuple) -> list[str]:
    """The wire form: one decimal string per coefficient, lowest degree first."""
    return [decimal_str(c) for c in cs]


class PolyNat:
    """The checked public type over the tuple functions; > and >= reach < and <= by reflection."""
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
            if c < 0:
                raise ValueError(f"coefficients must be nonnegative, got {decimal_str(c)}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for zero."""
        return len(self.coeffs) - 1

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyNat) and self.coeffs == other.coeffs

    def __lt__(self, other):
        return not le(other.coeffs, self.coeffs) if isinstance(other, PolyNat) else NotImplemented

    def __le__(self, other):
        return le(self.coeffs, other.coeffs) if isinstance(other, PolyNat) else NotImplemented

    def __add__(self, other):
        return PolyNat(add(self.coeffs, other.coeffs)) if isinstance(other, PolyNat) else NotImplemented

    def __mul__(self, other):
        return PolyNat(mul(self.coeffs, other.coeffs)) if isinstance(other, PolyNat) else NotImplemented

    def __repr__(self):
        return f"PolyNat({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(decimal_str(c))
            elif i == 1:
                terms.append("X" if c == 1 else f"{decimal_str(c)}*X")
            else:
                terms.append(f"X^{i}" if c == 1 else f"{decimal_str(c)}*X^{i}")
        return " + ".join(terms)

    def to_json(self) -> list[str]:
        return to_json(self.coeffs)

    @classmethod
    def from_json(cls, arr: Iterable[str]) -> "PolyNat":
        return cls(parse_decimal(c) for c in arr)


ZERO = PolyNat()
ONE = PolyNat((1,))
X = PolyNat((0, 1))
