"""Sequence coding over arbitrary-precision naturals.

A finite sequence is a single natural ``w`` plus an externally carried
length.  ``w`` packs two numbers through the quadratic pairing
``(u + v)**2 + u``; entry ``i`` is the remainder of ``u`` modulo
``1 + (i+1)*v``.  Appending rebases the code onto a larger modulus family
and plants the new entry at the next position, so earlier entries decode
unchanged and every natural, however large, is admissible as an entry.

Numbers that are not of pairing shape still decode: the totalized reader
``beta_total`` maps them to all zeros, which keeps every operation here
total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from seqcode._decimal import decimal_str, parse_decimal
from seqcode.witness import _carries, lcm_upto, recode_extend


class NotAPairCode(ValueError):
    """Raised when a number is not of the form (x + y)**2 + x."""


def _natural(n: int, what: str) -> int:
    if type(n) is not int:
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    return n


# floor square root, the s with s*s <= n < (s+1)*(s+1): integer-only, so exact
# at any size, and ValueError for n < 0
isqrt = math.isqrt


def pair(x: int, y: int) -> int:
    """Pack two naturals into one: (x + y)**2 + x."""
    _natural(x, "x")
    _natural(y, "y")
    return (x + y) ** 2 + x


def unpair(w: int) -> tuple[int, int]:
    """Invert ``pair``; raises NotAPairCode when w has no preimage.

    For s = isqrt(w) the only candidate is x = w - s*s, y = s - x, and it
    works exactly when w - s*s <= s.
    """
    _natural(w, "w")
    s = isqrt(w)
    x = w - s * s
    if x > s:
        raise NotAPairCode(w)
    return x, s - x


def is_pair_code(w: int) -> bool:
    """True iff w = pair(x, y) for some x, y."""
    s = isqrt(w)
    return w - s * s <= s


def beta(w: int, i: int) -> int | None:
    """Entry i of the code w, or None when w is not a pair code.

    With w = pair(u, v) this is u modulo 1 + (i+1)*v; over the naturals the
    remainder always exists and is automatically at most (i+1)*v.
    """
    _natural(i, "i")
    try:
        u, v = unpair(w)
    except NotAPairCode:
        return None
    return u % (1 + (i + 1) * v)


def _split(w: int) -> tuple[int, int]:
    # the totalized reading in one place: a non-code reads as code 0,
    # pair(0, 0), whose every entry is 0
    try:
        return unpair(w)
    except NotAPairCode:
        return 0, 0


def beta_total(w: int, i: int) -> int:
    """Totalized entry reader: like ``beta`` but 0 on non-codes.

    The code is split once into (u, v), a non-code into (0, 0), and the
    entry is u modulo 1 + (i+1)*v; on pair codes the two readers agree.
    """
    _natural(i, "i")
    u, v = _split(w)
    return u % (1 + (i + 1) * v)


@dataclass(frozen=True)
class SeqHandle:
    """A coded sequence: entry count plus the packed code.

    The length lives outside the code; codes are not self-delimiting.
    """

    len: int
    w: int

    def __post_init__(self):
        _natural(self.len, "len")
        _natural(self.w, "w")

    def to_json(self) -> dict[str, str]:
        return {"len": decimal_str(self.len), "w": decimal_str(self.w)}

    @classmethod
    def from_json(cls, obj: dict) -> "SeqHandle":
        return cls(parse_decimal(obj["len"]), parse_decimal(obj["w"]))


def seq_empty() -> SeqHandle:
    """The canonical empty sequence: length 0 with code 0 (= pair(0, 0))."""
    return SeqHandle(0, 0)


def seq_append(s: SeqHandle, x: int) -> SeqHandle:
    """Append x after position s.len - 1 without disturbing earlier entries.

    The code is unpaired once into (u0, v0); an empty handle or a non-code
    starts from (0, 0), i.e. code 0, which decodes to all zeros just as
    ``beta_total`` reads a non-code.  Then it is rebased: the new modulus
    base v1 is the least positive multiple of lcm(1..k+1) that is at least
    max(v0, x).  Divisibility by every position gap keeps the moduli
    pairwise coprime, and v1 >= x makes x a legal remainder at the new
    position.
    """
    _natural(x, "x")
    k = s.len
    u0, v0 = _split(s.w) if k else (0, 0)
    step = lcm_upto(k + 1)
    v1 = ((max(v0, x, 1) + step - 1) // step) * step
    u1 = recode_extend(u0, v0, v1, x, k)
    return SeqHandle(k + 1, pair(u1, v1))


def seq_build(xs: Iterable[int]) -> SeqHandle:
    """Encode the given naturals by repeated ``seq_append``."""
    handle = seq_empty()
    for x in xs:
        handle = seq_append(handle, x)
    return handle


def seq_decode(s: SeqHandle) -> list[int]:
    """All entries of the handle: [beta_total(s.w, i) for i < s.len]."""
    return [beta_total(s.w, i) for i in range(s.len)]


def normalize(w: int, k: int) -> int:
    """A pair code whose first k plain entries equal beta_total(w, .).

    For k >= 1 a pair code is returned unchanged, since ``beta`` and
    ``beta_total`` read it alike, and a non-code, which reads as all
    zeros, becomes code 0 = pair(0, 0), which reads the same.  k = 0
    always yields the canonical empty code 0.
    """
    _natural(w, "w")
    _natural(k, "k")
    return w if k and is_pair_code(w) else 0


def verify_seq_step(w: int, k: int, x: int, w_new: int) -> bool:
    """Check one append against the decoded contract.

    True iff w_new decodes like w on every position below k and decodes to
    x at position k itself.  Each code is split once, so the check takes
    two square roots, then runs recode_extend's residue check on the old
    entries followed by x, stopping at the first mismatch.
    """
    _natural(k, "k")
    u_new, v_new = _split(w_new)
    u, v = _split(w)
    old = (u % (1 + t * v) for t in range(1, k + 1))
    return _carries(u_new, v_new, itertools.chain(old, [x]))
