"""Decimal-string conversion for naturals of unbounded size.

CPython caps int<->str conversion length by default; sequence codes
legitimately run to thousands of digits, so these helpers raise the cap
just enough for their own conversion and restore it afterwards.  Decimal
strings are the only wire format for naturals here: no precision is ever
lost, and only plain ASCII digits are accepted.
"""

import sys


def _convert(convert, value, digits: int):
    # get_int_max_str_digits is missing on interpreters without the cap
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not 0 < cap < digits:
        return convert(value)
    sys.set_int_max_str_digits(digits)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(cap)


def decimal_str(n: int) -> str:
    """str(n), working for any number of digits."""
    return _convert(str, n, n.bit_length() // 3 + 3)


def parse_decimal(text: str) -> int:
    """The natural spelled by text, working for any number of digits.

    Only ASCII digits are accepted: a sign, spaces, underscores or an empty
    string raise ValueError, and a non-string raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a decimal string, got {type(text).__name__}")
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal natural: {text!r}")
    return _convert(int, text, len(text) + 1)
