"""Decimal-string boundary: naturals only, and no lasting change to the int-str cap."""

import sys

import pytest

from seqcode._decimal import decimal_str, parse_decimal


@pytest.mark.parametrize("text", ["-3", "+3", " 3", "3 ", "1_000", "", "3.0", "٣"])
def test_parse_decimal_rejects_non_naturals(text):
    with pytest.raises(ValueError):
        parse_decimal(text)


@pytest.mark.parametrize("value", [3, None, ["3"]])
def test_parse_decimal_rejects_non_strings(value):
    with pytest.raises(TypeError):
        parse_decimal(value)


def test_big_conversions_restore_the_cap():
    cap = sys.get_int_max_str_digits()
    n = 7**20000  # about 16.9k digits, past the default cap of 4300
    text = decimal_str(n)
    assert sys.get_int_max_str_digits() == cap
    assert parse_decimal(text) == n
    assert sys.get_int_max_str_digits() == cap
    assert parse_decimal("0042") == 42
