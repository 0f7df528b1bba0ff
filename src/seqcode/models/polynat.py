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
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if c < 0:
                raise ValueError(f"coefficients must be nonnegative, got {c}")
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
        # no trailing zeros, so the longer list has the higher degree
        return (len(self.coeffs), self.coeffs[::-1]) < (len(other.coeffs), other.coeffs[::-1])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyNat(self.coefficient(i) + other.coefficient(i) for i in range(n))

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return PolyNat()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyNat(out)

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


ZERO = PolyNat()
ONE = PolyNat((1,))
X = PolyNat((0, 1))


def lex_le(p: PolyNat, q: PolyNat) -> bool:
    """p <= q in the highest-coefficient-first order."""
    return p <= q


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
