"""The naturals extended by two absorbing atoms a0 and a1.

An element is a natural ``int`` or one of the two atom tokens ``A0 = "a0"``
and ``A1 = "a1"``; the operations branch on ``type(x) is str``, and ``str``
prints both kinds as the reports write them.

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

from typing import Optional

A0, A1 = "a0", "a1"
ZERO, ONE = 0, 1


def add(x: int | str, y: int | str) -> int | str:
    if type(x) is str:
        return x
    if type(y) is str:
        return y
    return x + y


def mul(x: int | str, y: int | str) -> int | str:
    if type(x) is str:
        return ZERO if y == 0 else x
    if type(y) is str:
        return y
    return x * y


def subtract(p: int | str, q: int | str) -> Optional[int | str]:
    """Some z with z + q == p, or None: an atom p is p + q, a standard p needs q <= p standard."""
    if type(p) is str:
        return p
    return p - q if type(q) is not str and q <= p else None


def qext_swap(x: int | str) -> int | str:
    """Swap the two atoms; identity on standard elements."""
    if type(x) is not str:
        return x
    return A1 if x == A0 else A0
