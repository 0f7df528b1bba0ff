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

import math
from dataclasses import dataclass
from typing import Iterable

from seqcode._decimal import _divmod, _natural, _Naturals, decimal_str
from seqcode.witness import _carries, _contract, _levels, _recode, _residues, lcm_upto


class NotAPairCode(ValueError):
    """Raised when a number is not of the form (x + y)**2 + x."""

    def __str__(self) -> str:  # the number, any size, formatted only when shown
        return decimal_str(self.args[0])


# floor square root, the s with s*s <= n < (s+1)*(s+1): integer-only, so exact
# at any size, and ValueError for n < 0; the leaf of _sqrtrem
isqrt = math.isqrt

_ROOT_LEAF = 2048  # widths that take one isqrt: 1,024-3,072 timed alike, 4,096+ slower


def _sqrtrem(n: int) -> tuple[int, int]:
    # (s, r) with s = isqrt(n) and r = n - s*s: Zimmermann's Karatsuba square
    # root (INRIA RR-3805, 1999), one isqrt at its leaf, no full-width square,
    # and one subquadratic _divmod per level
    if n.bit_length() <= _ROOT_LEAF:
        s = isqrt(n)
        r = n - s * s
    else:  # n >> 2k >= 2**(2k-1), so s1 >= 2**(k-1) and one correction suffices
        k = n.bit_length() // 4
        mask = (1 << k) - 1
        s1, r1 = _sqrtrem(n >> 2 * k)
        q, u = _divmod(r1 << k | n >> k & mask, 2 * s1)
        s, r = (s1 << k) + q, (u << k | n & mask) - q * q
        if r < 0:
            s, r = s - 1, r + 2 * s - 1
    # s*s + r == n holds by construction, so s is the floor root iff 0 <= r <= 2s
    if not 0 <= r <= 2 * s:
        raise RuntimeError("a square root failed its check: s*s <= n < (s+1)**2 does not hold")
    return s, r


def pair(x: int, y: int) -> int:
    """Pack two naturals into one: (x + y)**2 + x."""
    _natural(x, "x")
    _natural(y, "y")
    return (x + y) ** 2 + x


def unpair(w: int) -> tuple[int, int]:
    """Invert ``pair``; raises NotAPairCode when w has no preimage.

    For s = isqrt(w) the only candidate is x = w - s*s, y = s - x, and it
    works exactly when w - s*s <= s; ``_sqrtrem`` gives s and x at once.
    """
    _natural(w, "w")
    s, x = _sqrtrem(w)
    if x > s:
        raise NotAPairCode(w)
    return x, s - x


def is_pair_code(w: int) -> bool:
    """True iff w = pair(x, y) for some x, y."""
    _natural(w, "w")
    s, r = _sqrtrem(w)
    return r <= s


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
class SeqHandle(_Naturals):
    """A coded sequence: entry count plus the packed code.

    The length lives outside the code; codes are not self-delimiting.
    """

    len: int
    w: int


def seq_empty() -> SeqHandle:
    """The canonical empty sequence: length 0 with code 0 (= pair(0, 0))."""
    return SeqHandle(0, 0)


def _rebase(v: int, step: int, x: int) -> int:
    # the base for x after k entries at base v: the least positive multiple of
    # step = lcm(1..k+1) that is at least v and x
    _natural(x, "x")
    return ((max(v, x, 1) + step - 1) // step) * step


def _checked_base(write: str, v: int, n: int, lcm: int, top: int) -> int:
    # the one base check of a write: v is the least multiple of lcm = lcm(1..n) at least top
    if v % lcm or not top <= v < top + lcm:
        raise RuntimeError(f"{write} base {decimal_str(v)} is not the least multiple of "
                           f"lcm(1..{n}) at least {decimal_str(top)}")
    return v


def seq_append(s: SeqHandle, x: int) -> SeqHandle:
    """Append x after position s.len - 1 without disturbing earlier entries.

    One step on the split form, then one ``pair``: the code is unpaired
    once into (u0, v0), and an empty handle or a non-code starts from code
    0, which reads as all zeros, as ``beta_total`` reads a non-code.  The new
    base v1, the least positive multiple of lcm(1..k+1) at least max(v0, x),
    keeps the moduli pairwise coprime and x a legal remainder.  As in
    ``seq_build``, v1 is checked once against that closed form and the new
    code once against every entry; either failure is a RuntimeError (exit 1).
    """
    k, lcm = s.len, lcm_upto(s.len + 1)
    u, v = _split(s.w) if k else (0, 0)
    v1 = _checked_base("append", _rebase(v, lcm, x), k + 1, lcm, max(v, x, 1))
    residues = _residues(u, v, k) + [x]
    return SeqHandle(k + 1, pair(_contract(u, v, v1, residues, _recode(residues, v1)), v1))


def seq_build(xs: Iterable[int]) -> SeqHandle:
    """Encode the given naturals: the ``seq_append`` fold, code for code.

    One step on the split form (u, v) per entry, from (0, 0), and one
    ``pair`` at the end, so no code is unpaired.  The fold carries its
    entries, its level prefix and the step modulus lcm(1..k+1), grown by
    one ``math.lcm`` per entry: a step whose base holds runs only the new
    level of the recode, and no step checks anything.  The result is
    checked once: its base against the closed form, the least positive
    multiple of lcm(1..k) at least every entry, then its code against
    every entry; either failure is a RuntimeError.
    """
    u = v = 0
    entries, prefix, step = [], 1, 1
    for x in xs:
        step = math.lcm(step, len(entries) + 1)
        v1 = _rebase(v, step, x)
        entries.append(x)
        start = (u, prefix, len(entries) - 1) if v1 == v else (entries[0], 1, 1)
        last, (u, prefix) = (u, v), _levels(entries, v1, *start)
        v = v1
    if entries:  # the base from lcm_upto alone, then the last step's contract
        n = len(entries)
        _contract(*last, _checked_base("build", v, n, lcm_upto(n), max(*entries, 1)), entries, u)
    return SeqHandle(len(entries), pair(u, v))


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
    two square roots; then the k old entries are read by ``_residues`` and
    recode_extend's residue check compares every position, x at k included.
    """
    _natural(k, "k")
    _natural(x, "x")
    u_new, v_new = _split(w_new)
    u, v = _split(w)
    return _carries(u_new, v_new, _residues(u, v, k) + [x])
