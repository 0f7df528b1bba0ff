"""Decimal-string conversion for naturals of unbounded size.

The process-wide int-str cap is never read or changed, so conversion is
thread-safe at any size: a number of more than 640 digits, the smallest
cap CPython allows, is split in exact halves, recursively, and only the
pieces go through the builtin int() and str().  A split at 10**w is a
split at 5**w plus a binary shift, since 10**w = 5**w * 2**w: with
q, r = divmod(n >> w, 5**w),

    n = q * 10**w + (r << w | n & (2**w - 1)),

and that low half is below 10**w.  Only the powers of five are computed,
per call.  Decimal strings are the only wire format for naturals here: no
precision is ever lost, and only plain ASCII digits are accepted.
``_Naturals`` is that format for a record: a string per field, in declaration order.

Every wide division here, the square root's and the residue reader's too,
is ``_divmod``: Burnikel and Ziegler's recursive division (MPI-I-98-1-022,
1998).  The builtin divmod uses it for wide operands from CPython 3.12 on,
but is schoolbook, quadratic, on 3.10 and 3.11; one code path serves all.
"""

import json
from dataclasses import fields

_PIECE = 640  # sys.int_info.str_digits_check_threshold
_DIV_LEAF = 4000  # divisor or quotient widths for one builtin divmod: 2,000-4,000 timed alike


def _divmod(a: int, b: int) -> tuple[int, int]:
    # divmod(a, b) for naturals a and b > 0: the builtin where the divisor or
    # the quotient has at most _DIV_LEAF bits, else Burnikel and Ziegler's
    n = b.bit_length()
    if n <= _DIV_LEAF or a.bit_length() - n <= _DIV_LEAF:
        return divmod(a, b)
    if a >> n < b:
        q, r = _div2n1n(a, b, n)
    else:  # top down over a's base-2**n digits: the high half, then r and the low half
        shift = a.bit_length() // n // 2 * n
        q, r = _divmod(a >> shift, b)
        low, r = _divmod(r << shift | a & ((1 << shift) - 1), b)
        q = q << shift | low
    # a == q*b + r holds by construction, so q is the floor quotient iff 0 <= r < b
    if not 0 <= r < b:
        raise RuntimeError("a division failed its check: 0 <= r < b does not hold")
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    # divmod(a, b) for b of exactly n bits and a < b << n: two 3n/2n steps on
    # half-width digits, with a and b shifted one bit when n is odd
    if a.bit_length() - n <= _DIV_LEAF:
        return divmod(a, b)
    pad = n & 1
    a, b, n = a << pad, b << pad, n + pad
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    # divmod(a12 << n | a3, b) for b = b1 << n | b2 of 2n bits and a12 < b: the
    # quotient of a12 by b1, all ones if that overflows n bits, overshoots by <= 2
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q, r = q - 1, r + b
    return q, r


def _powers(digits: int) -> list[tuple[int, int]]:
    # (5**w, w), (5**2w, 2w), ... with w <= _PIECE and 2 * last width >= digits
    width, levels = digits, 0
    while width > _PIECE:
        width, levels = (width + 1) // 2, levels + 1
    powers = []
    for level in range(levels):
        powers.append((powers[-1][0] ** 2 if powers else 5**width, width << level))
    return powers


def _to_str(n: int, powers) -> str:
    # str(n) for 0 <= n < 10**(2 * last width), maybe with leading zeros; every level splits
    if not powers:
        return str(n)
    (power, width), rest = powers[-1], powers[:-1]
    q, r = _divmod(n >> width, power)
    low = (r << width) | (n & ((1 << width) - 1))
    return _to_str(q, rest) + _to_str(low, rest).zfill(width)


def _from_str(text: str, powers) -> int:
    # int(text) for exactly 2 * last width digits, one multiply, shift and add per split
    if not powers:
        return int(text)
    (power, width), rest = powers[-1], powers[:-1]
    return ((_from_str(text[:-width], rest) * power) << width) + _from_str(text[-width:], rest)


def decimal_str(n: int) -> str:
    """str(n), working for any number of digits; anything but an int raises TypeError."""
    if type(n) is not int:
        raise TypeError(f"expected an int, got {type(n).__name__}")
    if n < 0:
        return "-" + decimal_str(-n)
    # 0.30103 > log10(2), so this bounds the digit count from above
    return _to_str(n, _powers(n.bit_length() * 30103 // 100000 + 1)).lstrip("0") or "0"


def parse_decimal(text: str) -> int:
    """The natural spelled by text, working for any number of digits.

    Only ASCII digits are accepted: a sign, spaces, underscores or an empty
    string raise ValueError, and a non-string raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a decimal string, got {type(text).__name__}")
    if not (text.isascii() and text.encode("ascii").isdigit()):
        raise ValueError(f"not a decimal natural: {text!r}")
    powers = _powers(len(text))
    return _from_str(text.zfill(2 * powers[-1][1] if powers else 0), powers)


def _natural(n: int, what: str) -> int:
    """n itself if it is a natural: TypeError for a non-int or a bool, ValueError if negative."""
    if type(n) is not int:
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {decimal_str(n)}")
    return n


class _Naturals:
    """Fields checked by _natural; str() is the wire form at any size, where repr() may raise."""

    def __post_init__(self):
        for f in fields(self):
            _natural(getattr(self, f.name), f.name)

    def to_json(self) -> dict[str, str]:
        return {f.name: decimal_str(getattr(self, f.name)) for f in fields(self)}

    def __str__(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(parse_decimal(obj[f.name]) for f in fields(cls)))
