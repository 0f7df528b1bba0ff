"""Seeded axiom checker over concrete models, with self-validating reports.

Checking is testing, not proving: each axiom runs over an exhaustive small
box first and then over seeded random samples.  Each run seeds one
generator with the budget's seed and draws every sample from it in order,
so a report is a pure function of (model, axiom, budget).  A draw below n
is a rejection draw over getrandbits(n.bit_length()): the same values
randrange(n) gives.
A counterexample is re-evaluated before it is reported; reports never
relay a violation the reporter has not reproduced.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from seqcode.models import axioms as _axioms
from seqcode.models import polynat, qext
from seqcode.models.polynat import PolyNat


class UnknownAxiom(ValueError):
    """Axiom id not present in the registry."""


@dataclass(frozen=True)
class SampleBudget:
    """Random-phase budget: number of samples and the seed, both naturals."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        # Random(-s) draws what Random(s) draws: a negative seed repeats a stream
        samples, seed = self.samples, self.seed
        if type(samples) is not int or type(seed) is not int or samples < 0 or seed < 0:
            raise ValueError(f"samples and seed must be naturals, got {samples!r}, {seed!r}")


@dataclass(frozen=True)
class Model:
    """A concrete carrier with its operations, sampler, and exhaustive box."""

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    le: Optional[Callable[[Any, Any], bool]]
    box: tuple
    sample: Callable[[random.Random], Any]
    fmt: Callable[[Any], Any]
    subtract: Optional[Callable[[Any, Any], Optional[Any]]] = None
    pred: Optional[Callable[[Any], Optional[Any]]] = None


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
        """One json line: every field, in declaration order."""
        return json.dumps(asdict(self), separators=(",", ":"))


MAX_EXHAUSTIVE = 4096  # cap on assignments enumerated in the exhaustive phase
_VARS = ("x", "y", "z")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """randrange(n) as CPython 3.10-3.12 draws it: n.bit_length() bits, redrawn until below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample_nat(rng: random.Random) -> int:
    bits = _below(rng.getrandbits, 129)
    return rng.getrandbits(bits) if bits else 0


def _polynat_box() -> tuple:
    elems = {
        PolyNat((a, b, c))
        for a in range(4) for b in range(4) for c in range(4)
    }
    return tuple(sorted(elems))


def _sample_polynat(rng: random.Random) -> PolyNat:
    getrandbits = rng.getrandbits
    cs = [_below(getrandbits, 100) for _ in range(_below(getrandbits, 6) + 1)]
    while cs and cs[-1] == 0:
        cs.pop()
    return polynat._canonical(tuple(cs))


def _sample_qext(rng: random.Random) -> qext.QElem:
    r = _below(rng.getrandbits, 12)
    return (qext.A0, qext.A1)[r] if r < 2 else qext._std(_below(rng.getrandbits, 51))


NAT = Model(
    name="nat",
    zero=0,
    one=1,
    add=operator.add,
    mul=operator.mul,
    le=operator.le,
    box=tuple(range(12)),
    sample=_sample_nat,
    fmt=str,
    subtract=lambda x, y: y - x if x <= y else None,
    pred=lambda x: x - 1 if x > 0 else None,
)

POLYNAT = Model(
    name="polynat",
    zero=polynat.ZERO,
    one=polynat.ONE,
    add=operator.add,
    mul=operator.mul,
    le=operator.le,
    box=_polynat_box(),
    sample=_sample_polynat,
    fmt=lambda p: p.to_json(),
    subtract=lambda x, y: polynat.subtract(y, x),
)

QEXT = Model(
    name="qext",
    zero=qext.ZERO,
    one=qext.ONE,
    add=qext.add,
    mul=qext.mul,
    le=None,
    box=(qext.A0, qext.A1) + tuple(qext.std(n) for n in range(51)),
    sample=_sample_qext,
    fmt=qext.fmt,
    pred=qext.pred,
)

MODELS = {m.name: m for m in (NAT, POLYNAT, QEXT)}


def _exhaustive_box(model: Model, arity: int) -> tuple:
    # shrink the per-variable box until the assignment count fits the cap;
    # boxes list their telling elements first (qext's atoms, then the
    # smallest values ascending), so truncation keeps those
    limit = len(model.box)
    while limit > 1 and limit ** arity > MAX_EXHAUSTIVE:
        limit -= 1
    return model.box[:limit]


def _counterexample(model: Model, ax: _axioms.Axiom, args: tuple,
                    tested: int, seed: int) -> AxiomReport:
    if ax.holds(model, args):  # report only reproduced violations
        raise RuntimeError(f"unstable evaluation of {ax.id} on {args!r}")
    assignment = {var: model.fmt(val) for var, val in zip(_VARS, args)}
    return AxiomReport(model.name, ax.id, tested, "counterexample", assignment, seed)


def run_axiom(model: Model, ax: _axioms.Axiom,
              budget: SampleBudget = SampleBudget()) -> AxiomReport:
    """Exhaustive box, then samples from one Random(budget.seed), in one loop; stop at a violation."""
    if ax.needs_order and model.le is None:
        raise ValueError(f"axiom {ax.id} needs an order, but model {model.name} has none")
    holds, arity = ax.holds, ax.arity
    rng, sample = random.Random(budget.seed), model.sample
    boxed = itertools.product(_exhaustive_box(model, arity), repeat=arity)
    sampled = (tuple([sample(rng) for _ in range(arity)]) for _ in range(budget.samples))
    tested = 0  # an empty box with no samples tests nothing
    for tested, args in enumerate(itertools.chain(boxed, sampled), 1):
        if not holds(model, args):
            return _counterexample(model, ax, args, tested, budget.seed)
    return AxiomReport(model.name, ax.id, tested, "pass", None, budget.seed)


def check_axiom(model: Model, axiom_id: str,
                budget: SampleBudget = SampleBudget()) -> AxiomReport:
    """Check one axiom or derived law by id (see axioms.REGISTRY)."""
    try:
        ax = _axioms.REGISTRY[axiom_id]
    except KeyError:
        raise UnknownAxiom(axiom_id) from None
    return run_axiom(model, ax, budget)


def check_q_axioms(budget: SampleBudget = SampleBudget()) -> list[AxiomReport]:
    """Check the seven successor/addition/multiplication axioms on the atom model."""
    return [run_axiom(QEXT, ax, budget) for ax in _axioms.Q_AXIOMS]


def verify_automorphism(budget: SampleBudget = SampleBudget()) -> AxiomReport:
    """Check that the atom swap is an involutive automorphism of the atom model."""
    return run_axiom(QEXT, _axioms.AUTOMORPHISM, budget)


def subtraction_counterexample() -> tuple[PolyNat, PolyNat]:
    """The canonical witness that the polynomial order lacks subtraction.

    Returns (p, q) with p <= q and no z satisfying z + p == q.  Both facts
    are re-checked here: the order directly, the unsolvability through the
    exact coefficient-wise decision (z's constant term would need to be
    0 - 1).
    """
    p, q = polynat.ONE, polynat.X
    if not p <= q:
        raise RuntimeError("expected 1 <= X in the lexicographic order")
    if polynat.subtract(q, p) is not None:
        raise RuntimeError("expected z + 1 = X to be unsolvable")
    return p, q
