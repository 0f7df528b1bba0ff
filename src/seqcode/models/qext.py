"""The naturals extended by two absorbing atoms a0 and a1.

Operation tables, with n standard, a an atom, x arbitrary:

    a + x = a      n + a = a      n * a = a
    a * 0 = 0      a * x = a  (x != 0)

Successor is addition of 1, so each atom is its own successor.  Note the
deliberate asymmetry: 0 * a = a while a * 0 = 0, so the corner cases are
not commutative and checkers must not assume they are.  The atom swap
(identity on standard elements) preserves every operation, which is what
makes the two atoms indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class QElem:
    """Element of the extended carrier: a standard natural or one of two atoms."""

    atom: Optional[int] = None  # 0 or 1 picks an atom; None means standard
    n: int = 0                  # the standard value; forced to 0 for atoms

    def __post_init__(self):
        if type(self.n) is not int or not (self.atom is None or type(self.atom) is int):
            raise TypeError(f"atom and standard part must be ints, got {self.atom!r}, {self.n!r}")
        if self.atom not in (None, 0, 1):
            raise ValueError(f"atom must be None, 0, or 1, got {self.atom!r}")
        if self.atom is None and self.n < 0:
            raise ValueError(f"standard part must be nonnegative, got {self.n}")
        if self.atom is not None and self.n != 0:
            raise ValueError("atoms carry no standard part")

    @property
    def is_atom(self) -> bool:
        return self.atom is not None

    def __repr__(self):
        return f"a{self.atom}" if self.is_atom else f"Std({self.n})"


def std(n: int) -> QElem:
    return QElem(None, n)


def _std(n: int) -> QElem:
    """std(n) for a natural int n, without the checks or the frozen dataclass __init__."""
    e = object.__new__(QElem)
    fields = e.__dict__
    fields["atom"], fields["n"] = None, n
    return e


A0 = QElem(0, 0)
A1 = QElem(1, 0)
ZERO = std(0)
ONE = std(1)


def add(x: QElem, y: QElem) -> QElem:
    if x.atom is not None:
        return x
    if y.atom is not None:
        return y
    return _std(x.n + y.n)


def mul(x: QElem, y: QElem) -> QElem:
    if x.atom is not None:
        return ZERO if y.atom is None and y.n == 0 else x
    if y.atom is not None:
        return y
    return _std(x.n * y.n)


def succ(x: QElem) -> QElem:
    return add(x, ONE)


def subtract(p: QElem, q: QElem) -> Optional[QElem]:
    """Some z with z + q == p, or None: an atom p is p + q, a standard p needs q <= p standard."""
    if p.atom is not None:
        return p
    return _std(p.n - q.n) if q.atom is None and q.n <= p.n else None


def qext_swap(x: QElem) -> QElem:
    """Swap the two atoms; identity on standard elements."""
    if x.atom is None:
        return x
    return A1 if x.atom == 0 else A0


def fmt(x: QElem) -> str:
    return f"a{x.atom}" if x.is_atom else str(x.n)
