"""Polynomials with nonnegative integer coefficients, ordered lexicographically.

An element is a coefficient tuple, lowest degree first with no trailing
zeros, and () is zero.  The functions on such tuples are the one
implementation of the carrier: its sum, product, order, subtraction, text
and wire form.  The lab's ``POLYNAT`` and the CLI run on them.  The order
compares the lengths first and then reads the tuples from the highest
position down: degree dominates, and ties fall to lower coefficients.

Under this order the carrier is a discretely ordered commutative semiring
with least element 0, but one without subtraction: 1 < X, yet z + 1 = X
would force a constant coefficient with z0 + 1 = 0.
"""

from __future__ import annotations

import itertools
from typing import Optional

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


def canonical(cs) -> tuple:
    """The tuple of cs without trailing zeros."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def subtract(p: tuple, q: tuple) -> Optional[tuple]:
    """The z with add(z, q) == p, or None when there is none.

    Exact decision: subtraction exists iff it exists coefficient by
    coefficient, since addition never mixes positions.
    """
    diffs = [x - y for x, y in itertools.zip_longest(p, q, fillvalue=0)]
    return None if any(d < 0 for d in diffs) else canonical(diffs)


def to_json(cs: tuple) -> list[str]:
    """The wire form: one decimal string per coefficient, lowest degree first."""
    return [decimal_str(c) for c in cs]


def from_json(arr: list[str]) -> tuple:
    """The canonical tuple of a wire form: a list, else TypeError, of decimal naturals."""
    if not isinstance(arr, list):
        raise TypeError(f"expected a list of decimal strings, got {type(arr).__name__}")
    return canonical(parse_decimal(c) for c in arr)


def show(cs: tuple) -> str:
    """The polynomial as text, lowest degree first: "1 + 2*X + X^2"; "0" for ()."""
    if not cs:
        return "0"
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            terms.append(decimal_str(c))
        elif i == 1:
            terms.append("X" if c == 1 else f"{decimal_str(c)}*X")
        else:
            terms.append(f"X^{i}" if c == 1 else f"{decimal_str(c)}*X^{i}")
    return " + ".join(terms)


class PolyNat:
    """A bare name: only ``benchmarks/tracing.py`` imports it, until ROADMAP item 2."""
