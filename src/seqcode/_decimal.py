"""Decimal-string conversion for naturals of unbounded size.

The process-wide int-str cap is never read or changed, so conversion is
thread-safe at any size: a number of more than 640 digits, the smallest
cap CPython allows, is split in halves, recursively, at powers of ten
computed per call, and only the pieces go through the builtin int() and
str().  Decimal strings are the only wire format for naturals here: no
precision is ever lost, and only plain ASCII digits are accepted.
"""

_PIECE = 640  # sys.int_info.str_digits_check_threshold


def _powers(digits: int) -> list[tuple[int, int]]:
    # (10**w, w), (10**2w, 2w), ... with w <= _PIECE and 2 * last width >= digits
    width, levels = digits, 0
    while width > _PIECE:
        width, levels = (width + 1) // 2, levels + 1
    powers = []
    for level in range(levels):
        powers.append((powers[-1][0] ** 2 if powers else 10**width, width << level))
    return powers


def _to_str(n: int, powers) -> str:
    # str(n) for 0 <= n < 10**(2 * last width); each low half is zero-padded
    if not powers:
        return str(n)
    (power, width), rest = powers[-1], powers[:-1]
    if n < power:
        return _to_str(n, rest)
    high, low = divmod(n, power)
    return _to_str(high, rest) + _to_str(low, rest).zfill(width)


def _from_str(text: str, powers) -> int:
    # int(text) for at most 2 * last width digits, one multiply-add per split
    if not powers:
        return int(text)
    (power, width), rest = powers[-1], powers[:-1]
    if len(text) <= width:
        return _from_str(text, rest)
    return _from_str(text[:-width], rest) * power + _from_str(text[-width:], rest)


def decimal_str(n: int) -> str:
    """str(n), working for any number of digits; anything but an int raises TypeError."""
    if type(n) is not int:
        raise TypeError(f"expected an int, got {type(n).__name__}")
    if n < 0:
        return "-" + decimal_str(-n)
    # 0.30103 > log10(2), so this bounds the digit count from above
    return _to_str(n, _powers(n.bit_length() * 30103 // 100000 + 1))


def parse_decimal(text: str) -> int:
    """The natural spelled by text, working for any number of digits.

    Only ASCII digits are accepted: a sign, spaces, underscores or an empty
    string raise ValueError, and a non-string raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a decimal string, got {type(text).__name__}")
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal natural: {text!r}")
    return _from_str(text, _powers(len(text)))
