"""Polynomials with nonnegative integer coefficients, ordered lexicographically.

Coefficients are stored lowest degree first with no trailing zeros; the
zero polynomial is the empty tuple.  Comparison looks at the length of
the coefficient lists first and then reads them from the highest position
down, so degree dominates and ties fall through to lower coefficients.

Under this order the carrier is a discretely ordered commutative semiring
with least element 0, but one without subtraction: 1 < X, yet z + 1 = X
would force a constant coefficient with z0 + 1 = 0.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from seqcode._decimal import decimal_str, parse_decimal


@functools.total_ordering
class PolyNat:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
            if c < 0:
                raise ValueError(f"coefficients must be nonnegative, got {c}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for zero."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyNat) and self.coeffs == other.coeffs

    def __lt__(self, other):
        if not isinstance(other, PolyNat):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return len(a) < len(b) if len(a) != len(b) else a[::-1] < b[::-1]

    def __le__(self, other):
        if not isinstance(other, PolyNat):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return len(a) < len(b) if len(a) != len(b) else a[::-1] <= b[::-1]

    def __add__(self, other):
        try:
            a, b = self.coeffs, other.coeffs
        except AttributeError:  # not a PolyNat: let Python raise TypeError
            return NotImplemented
        if len(a) < len(b):
            a, b = b, a
        out = list(a)  # tuple() of a list is exact; of a map it resizes and bloats free lists
        for i, y in enumerate(b):
            out[i] += y
        return _canonical(tuple(out))

    def __mul__(self, other):
        try:
            a, b = self.coeffs, other.coeffs
        except AttributeError:
            return NotImplemented
        if not a or not b:
            return _canonical(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return _canonical(tuple(out))

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
                terms.append(str(c))
            elif i == 1:
                terms.append("X" if c == 1 else f"{c}*X")
            else:
                terms.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
        return " + ".join(terms)

    def to_json(self) -> list[str]:
        return [decimal_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, arr: Iterable[str]) -> "PolyNat":
        return cls(parse_decimal(c) for c in arr)


def _canonical(coeffs: tuple[int, ...]) -> PolyNat:
    """A PolyNat on natural ints with no trailing zero, unchecked: sums and products
    of PolyNats are such, since their top coefficients are sums or products of nonzero ones."""
    p = object.__new__(PolyNat)
    p.coeffs = coeffs
    return p


ZERO = PolyNat()
ONE = PolyNat((1,))
X = PolyNat((0, 1))


def subtract(p: PolyNat, q: PolyNat) -> Optional[PolyNat]:
    """The z with z + q == p, or None when there is none.

    Exact decision: subtraction exists iff it exists coefficient by
    coefficient, since addition never mixes positions.
    """
    n = max(len(p.coeffs), len(q.coeffs))
    diffs = [p.coefficient(i) - q.coefficient(i) for i in range(n)]
    if any(d < 0 for d in diffs):
        return None
    return PolyNat(diffs)
