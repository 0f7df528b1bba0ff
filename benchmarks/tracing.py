"""Spans for the traced run, recorded around the calls into each layer.

``Tracer.install`` wraps every traced library function where its callers
look it up: a function bound by name in several modules (``recode_extend``
lives in ``seqcode.codec`` as well as ``seqcode.witness``; the decimal
helpers in four modules) is replaced in each of them, and methods are
replaced on their class.  ``Tracer.remove`` puts every original back, so
the untraced run executes the library exactly as shipped.

A span is (name, start, end, parent index, op id).  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from seqcode import _decimal, cli, codec, witness
from seqcode.models import checker
from seqcode.models.polynat import PolyNat

_clock = time.perf_counter

# (metric prefix, owner, attribute); module functions are rebound in every
# seqcode module that holds them, methods on their class.
SPANNED = (
    ("codec.isqrt", codec, "isqrt"),
    ("codec.unpair", codec, "unpair"),
    ("codec.is_pair_code", codec, "is_pair_code"),
    ("codec.beta", codec, "beta"),
    ("codec.normalize", codec, "normalize"),
    ("codec.seq_append", codec, "seq_append"),
    ("codec.seq_decode", codec, "seq_decode"),
    ("codec.verify_seq_step", codec, "verify_seq_step"),
    ("witness.recode_extend", witness, "recode_extend"),
    ("witness.product_inverse", witness, "product_inverse"),
    ("witness.factor_inverse", witness, "factor_inverse"),
    ("witness.divisor_product", witness, "divisor_product"),
    ("witness.verify", witness.FactorWitness, "verify"),
    ("witness.verify", witness.InverseCertificate, "verify"),
    ("witness.verify", witness.RecodeWitness, "verify"),
    ("cli.main", cli, "main"),
    ("decimal.decimal_str", _decimal, "decimal_str"),
    ("decimal.parse_decimal", _decimal, "parse_decimal"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANNED))
MODEL_NAMES = ("nat", "polynat", "qext")
RUN_AXIOM_SPANS = tuple(f"models.{m}.run_axiom" for m in MODEL_NAMES)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.lt_calls = 0
        self.assignments: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = _clock()
        try:
            return fn(*args)
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, lambda: fn(*args, **kwargs))
        return traced

    def _run_axiom(self, fn):
        def traced(model, ax, *rest, **kwargs):
            report = self.call(f"models.{model.name}.run_axiom",
                               lambda: fn(model, ax, *rest, **kwargs))
            self.assignments[model.name] += report.samples
            return report
        return traced

    def _counted_lt(self, fn):
        def traced(a, b):
            self.lt_calls += 1
            return fn(a, b)
        return traced

    def _patch(self, owner, attr, replacement):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [(mod, name) for mod_name, mod in list(sys.modules.items())
                       if mod is not None and (mod_name == "seqcode" or mod_name.startswith("seqcode."))
                       for name, value in list(vars(mod).items()) if value is original]
        for holder, name in holders:
            setattr(holder, name, replacement)
            self._patches.append((holder, name, original))

    def install(self):
        for name, owner, attr in SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        self._patch(checker, "run_axiom", self._run_axiom(checker.run_axiom))
        self._patch(PolyNat, "__lt__", self._counted_lt(PolyNat.__lt__))

    def remove(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)


def self_times(spans) -> tuple[Counter, dict]:
    """Calls and self time (span minus its children's spans) per name."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, children):
        calls[name] += 1
        self_s[name] += (end - start) - child
    return calls, self_s


def count_within(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def write_spans(spans, path: str) -> None:
    """Tab-separated spans, times in seconds from the first span's start."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_s\tend_s\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{op}\n")
