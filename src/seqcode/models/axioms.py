"""Executable axioms and derived laws for the model laboratory.

Each entry is a closed universal statement in at most three variables; the
checker supplies assignments and we evaluate the matrix.  Existential
subformulas are decided exactly through the model's one hook,
``subtract(p, q)``, the z with z + q == p or None, never by unbounded
search: SUBTRACTION asks it for y minus x and Q3 for x minus 1.  Any
witness the hook produces is re-verified on the spot.  Each statement
names the model hooks it reads (``le``, ``subtract``, ``automorphism``),
and the checker refuses a model that sets one of them to None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Axiom:
    id: str
    arity: int
    statement: str
    needs: tuple  # names of the model hooks holds reads that a model may set to None
    holds: Callable  # holds(model, args) -> bool


def _succ(m, x):
    return m.add(x, m.one)


def _solves(m, p, q):
    """Whether p - q exists: the hook's z, re-verified as z + q == p."""
    z = m.subtract(p, q)
    return z is not None and m.add(z, q) == p


def _subtraction(m, a):
    return not m.le(a[0], a[1]) or _solves(m, a[1], a[0])


CORE_AXIOMS = (
    Axiom("A1", 1, "x + 0 = x", (),
          lambda m, a: m.add(a[0], m.zero) == a[0]),
    Axiom("A2", 2, "x + y = y + x", (),
          lambda m, a: m.add(a[0], a[1]) == m.add(a[1], a[0])),
    Axiom("A3", 3, "(x + y) + z = x + (y + z)", (),
          lambda m, a: m.add(m.add(a[0], a[1]), a[2]) == m.add(a[0], m.add(a[1], a[2]))),
    Axiom("M1", 1, "x * 1 = x", (),
          lambda m, a: m.mul(a[0], m.one) == a[0]),
    Axiom("M2", 2, "x * y = y * x", (),
          lambda m, a: m.mul(a[0], a[1]) == m.mul(a[1], a[0])),
    Axiom("M3", 3, "(x * y) * z = x * (y * z)", (),
          lambda m, a: m.mul(m.mul(a[0], a[1]), a[2]) == m.mul(a[0], m.mul(a[1], a[2]))),
    Axiom("AM", 3, "x * (y + z) = x*y + x*z", (),
          lambda m, a: m.mul(a[0], m.add(a[1], a[2])) == m.add(m.mul(a[0], a[1]), m.mul(a[0], a[2]))),
    Axiom("O1", 2, "x <= y or y <= x", ("le",),
          lambda m, a: m.le(a[0], a[1]) or m.le(a[1], a[0])),
    Axiom("O2", 3, "(x <= y and y <= z) -> x <= z", ("le",),
          lambda m, a: not (m.le(a[0], a[1]) and m.le(a[1], a[2])) or m.le(a[0], a[2])),
    Axiom("S1", 1, "not (x + 1 <= x)", ("le",),
          lambda m, a: not m.le(_succ(m, a[0]), a[0])),
    Axiom("S2", 2, "x <= y -> (x = y or x + 1 <= y)", ("le",),
          lambda m, a: not m.le(a[0], a[1]) or a[0] == a[1] or m.le(_succ(m, a[0]), a[1])),
    Axiom("OA", 3, "x <= y -> x + z <= y + z", ("le",),
          lambda m, a: not m.le(a[0], a[1]) or m.le(m.add(a[0], a[2]), m.add(a[1], a[2]))),
    Axiom("OM", 3, "x <= y -> x * z <= y * z", ("le",),
          lambda m, a: not m.le(a[0], a[1]) or m.le(m.mul(a[0], a[2]), m.mul(a[1], a[2]))),
)

DERIVED_LAWS = (
    Axiom("LE_ANTISYM", 2, "(x <= y and y <= x) -> x = y", ("le",),
          lambda m, a: not (m.le(a[0], a[1]) and m.le(a[1], a[0])) or a[0] == a[1]),
    Axiom("ADD_CANCEL_LE", 3, "x + z <= y + z -> x <= y", ("le",),
          lambda m, a: not m.le(m.add(a[0], a[2]), m.add(a[1], a[2])) or m.le(a[0], a[1])),
    Axiom("MUL_ZERO", 1, "x * 0 = 0", (),
          lambda m, a: m.mul(a[0], m.zero) == m.zero),
    Axiom("ZERO_MIN", 1, "0 <= x", ("le",),
          lambda m, a: m.le(m.zero, a[0])),
    Axiom("MUL_CANCEL_LE", 3, "(z != 0 and x*z <= y*z) -> x <= y", ("le",),
          lambda m, a: a[2] == m.zero or not m.le(m.mul(a[0], a[2]), m.mul(a[1], a[2])) or m.le(a[0], a[1])),
    Axiom("LE_SUCC_SPLIT", 2, "x <= y + 1 <-> (x <= y or x = y + 1)", ("le",),
          lambda m, a: m.le(a[0], _succ(m, a[1])) == (m.le(a[0], a[1]) or a[0] == _succ(m, a[1]))),
)

SUBTRACTION = Axiom("SUBTRACTION", 2, "x <= y -> exists z (z + x = y)", ("le", "subtract"),
                    _subtraction)


Q_AXIOMS = (
    Axiom("Q1", 2, "S(x) = S(y) -> x = y", (),
          lambda m, a: _succ(m, a[0]) != _succ(m, a[1]) or a[0] == a[1]),
    Axiom("Q2", 1, "S(x) != 0", (),
          lambda m, a: _succ(m, a[0]) != m.zero),
    Axiom("Q3", 1, "x != 0 -> exists y (x = S(y))", ("subtract",),
          lambda m, a: a[0] == m.zero or _solves(m, a[0], m.one)),
    Axiom("Q4", 1, "x + 0 = x", (),
          lambda m, a: m.add(a[0], m.zero) == a[0]),
    Axiom("Q5", 2, "x + S(y) = S(x + y)", (),
          lambda m, a: m.add(a[0], _succ(m, a[1])) == _succ(m, m.add(a[0], a[1]))),
    Axiom("Q6", 1, "x * 0 = 0", (),
          lambda m, a: m.mul(a[0], m.zero) == m.zero),
    Axiom("Q7", 2, "x * S(y) = x*y + x", (),
          lambda m, a: m.mul(a[0], _succ(m, a[1])) == m.add(m.mul(a[0], a[1]), a[0])),
)


def _automorphism(m, a):
    f = m.automorphism
    x, y = a
    return (
        f(m.add(x, y)) == m.add(f(x), f(y))
        and f(m.mul(x, y)) == m.mul(f(x), f(y))
        and f(f(x)) == x
        and f(_succ(m, x)) == _succ(m, f(x))
        and f(m.zero) == m.zero
        and f(m.one) == m.one
    )


AUTOMORPHISM = Axiom(
    "AUTOMORPHISM", 2,
    "the atom swap preserves 0, 1, successor, + and *, and is an involution",
    ("automorphism",), _automorphism,
)

REGISTRY = {ax.id: ax for ax in CORE_AXIOMS + DERIVED_LAWS + (SUBTRACTION,) + Q_AXIOMS + (AUTOMORPHISM,)}
