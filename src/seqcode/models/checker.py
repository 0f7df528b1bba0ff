"""Seeded axiom checker over models of plain values, with self-validating reports.

Checking is testing, not proving: each axiom runs over an exhaustive small
box first and then over seeded random samples.  Each run opens one sample
stream, ``model.draws(random.Random(budget.seed))``, so a report is a pure
function of (model, axiom, budget).  The built-in streams are generators:
opening one draws nothing, and each draw below n is made inline as
randrange(n) makes it on CPython 3.10-3.13: getrandbits(n.bit_length()),
redrawn while the result is at least n.  A counterexample is re-evaluated
before it is reported; reports never relay a violation the reporter has
not reproduced.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Optional

from seqcode._decimal import _natural, decimal_str
from seqcode.models import axioms as _axioms
from seqcode.models import polynat, qext


class UnknownAxiom(ValueError):
    """Axiom id not present in the registry."""


@dataclass(frozen=True)
class SampleBudget:
    """Random-phase budget: number of samples and the seed, both naturals."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        # Random(-s) draws what Random(s) draws: a negative seed repeats a stream
        _natural(self.samples, "samples")
        _natural(self.seed, "seed")


@dataclass(frozen=True)
class Model:
    """A concrete carrier: operations, sample stream, exhaustive box, and the statements checked on it.

    ``draws(rng)`` opens an endless stream of elements drawn from rng; a per-draw
    sampler f carries over as ``lambda rng: map(f, itertools.repeat(rng))``.  The hooks
    ``le``, ``subtract(p, q)`` (the z with z + q == p, or None) and ``automorphism``
    (a map on the carrier) may be None; statements that need a missing one are refused.
    ``fmt`` writes an element into a report: ``str`` by default, which prints ints and
    qext's atom tokens as reports write them; polynat sets ``polynat.to_json``."""

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    le: Optional[Callable[[Any, Any], bool]]
    box: tuple
    draws: Callable[[random.Random], Iterator[Any]]
    fmt: Callable[[Any], Any] = str
    subtract: Optional[Callable[[Any, Any], Optional[Any]]] = None
    automorphism: Optional[Callable[[Any], Any]] = None
    statements: tuple = ()


@dataclass(frozen=True)
class AxiomReport:
    model: str
    axiom: str
    samples: int
    verdict: str  # "pass" or "counterexample"
    counterexample: Optional[dict]
    seed: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_line(self) -> str:
        """One json line: every field, in declaration order, an int of any width in full."""
        def dump(v):
            return decimal_str(v) if type(v) is int else json.dumps(v, separators=(",", ":"))
        return "{" + ",".join(f'"{f.name}":{dump(getattr(self, f.name))}' for f in fields(self)) + "}"


MAX_EXHAUSTIVE = 4096  # cap on assignments enumerated in the exhaustive phase
_VARS = ("x", "y", "z")
_HOOK_NAMES = {"le": "an order", "subtract": "a subtraction", "automorphism": "an automorphism"}


def _sample_nat(rng: random.Random) -> Iterator[int]:
    getrandbits = rng.getrandbits
    while True:
        while (bits := getrandbits(8)) >= 129:
            pass
        yield getrandbits(bits)  # getrandbits(0) is 0 and draws nothing


def _polynat_box() -> tuple:
    # ascending in le's order: the degree first, then the coefficients from the top down
    elems = {polynat.canonical(cs) for cs in itertools.product(range(4), repeat=3)}
    return tuple(sorted(elems, key=lambda cs: (len(cs), cs[::-1])))


def _sample_polynat(rng: random.Random) -> Iterator[tuple]:
    getrandbits = rng.getrandbits
    while True:
        while (degree := getrandbits(3)) >= 6:
            pass
        cs = []
        for _ in range(degree + 1):
            while (c := getrandbits(7)) >= 100:
                pass
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        yield tuple(cs)


def _sample_qext(rng: random.Random) -> Iterator[int | str]:
    getrandbits, atoms = rng.getrandbits, (qext.A0, qext.A1)
    while True:
        while (r := getrandbits(4)) >= 12:
            pass
        if r < 2:
            yield atoms[r]
        else:
            while (n := getrandbits(6)) >= 51:
                pass
            yield n


NAT = Model(
    name="nat",
    zero=0,
    one=1,
    add=operator.add,
    mul=operator.mul,
    le=operator.le,
    box=tuple(range(12)),
    draws=_sample_nat,
    subtract=lambda p, q: p - q if q <= p else None,
    statements=_axioms.CORE_AXIOMS,
)

POLYNAT = Model(
    name="polynat",
    zero=(),
    one=(1,),
    add=polynat.add,
    mul=polynat.mul,
    le=polynat.le,
    box=_polynat_box(),
    draws=_sample_polynat,
    fmt=polynat.to_json,
    subtract=polynat.subtract,
    statements=_axioms.CORE_AXIOMS,
)

QEXT = Model(
    name="qext",
    zero=qext.ZERO,
    one=qext.ONE,
    add=qext.add,
    mul=qext.mul,
    le=None,
    box=(qext.A0, qext.A1) + tuple(range(51)),
    draws=_sample_qext,
    subtract=qext.subtract,
    automorphism=qext.qext_swap,
    statements=_axioms.Q_AXIOMS + (_axioms.AUTOMORPHISM,),
)

MODELS = {m.name: m for m in (NAT, POLYNAT, QEXT)}


def _exhaustive_box(model: Model, arity: int) -> tuple:
    # shrink the per-variable box until the assignment count fits the cap;
    # boxes list their telling elements first (qext's atoms, then the
    # smallest values ascending), so truncation keeps those
    limit = len(model.box)
    while limit ** arity > MAX_EXHAUSTIVE:
        limit -= 1
    return model.box[:limit]


def _counterexample(model: Model, ax: _axioms.Axiom, args: tuple,
                    tested: int, seed: int) -> AxiomReport:
    if ax.holds(model, args):  # report only reproduced violations
        raise RuntimeError(f"unstable evaluation of {ax.id} on {args!r}")
    assignment = {var: model.fmt(val) for var, val in zip(_VARS, args)}
    return AxiomReport(model.name, ax.id, tested, "counterexample", assignment, seed)


def require_hooks(model: Model, ax: _axioms.Axiom) -> None:
    """Raise ValueError when ax needs a hook model sets to None; ``run_axiom``'s one refusal."""
    for hook in ax.needs:
        if getattr(model, hook) is None:
            raise ValueError(f"axiom {ax.id} needs {_HOOK_NAMES[hook]}, but model {model.name} has none")


def run_axiom(model: Model, ax: _axioms.Axiom,
              budget: SampleBudget = SampleBudget()) -> AxiomReport:
    """Exhaustive box, then samples from one Random(budget.seed), in one loop; stop at a violation."""
    require_hooks(model, ax)
    holds, arity = ax.holds, ax.arity
    boxed = itertools.product(_exhaustive_box(model, arity), repeat=arity)
    # lazily: one draw per variable, x then y then z, from one stream on one generator
    draws = iter(model.draws(random.Random(budget.seed)))  # zip must share one iterator
    # islice takes no stop past sys.maxsize, and no run draws that many
    sampled = itertools.islice(zip(*[draws] * arity) if arity else itertools.repeat(()),
                               min(budget.samples, sys.maxsize))
    tested = 0  # an empty box with no samples tests nothing
    for tested, args in enumerate(itertools.chain(boxed, sampled), 1):
        if not holds(model, args):
            return _counterexample(model, ax, args, tested, budget.seed)
    return AxiomReport(model.name, ax.id, tested, "pass", None, budget.seed)


def check_axiom(model: Model, axiom_id: str,
                budget: SampleBudget = SampleBudget()) -> AxiomReport:
    """Check one statement by id: any of axioms.REGISTRY, the Q axioms and AUTOMORPHISM too."""
    try:
        ax = _axioms.REGISTRY[axiom_id]
    except KeyError:
        raise UnknownAxiom(axiom_id) from None
    return run_axiom(model, ax, budget)
