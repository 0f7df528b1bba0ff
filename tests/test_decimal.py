"""Decimal-string boundary: naturals only, and the int-str cap is never read or changed."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcode._decimal import decimal_str, parse_decimal


def oracle_str(n: int) -> str:
    # the builtin conversion, with the cap lifted for this call only
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("text", ["-3", "+3", " 3", "3 ", "1_000", "", "3.0", "٣"])
def test_parse_decimal_rejects_non_naturals(text):
    with pytest.raises(ValueError):
        parse_decimal(text)


@pytest.mark.parametrize("value", [3, None, ["3"]])
def test_parse_decimal_rejects_non_strings(value):
    with pytest.raises(TypeError):
        parse_decimal(value)


@pytest.mark.parametrize("value", [True, False, 3.0])
def test_decimal_str_rejects_non_ints(value):
    # str(True) is "True" and str(3.0) is "3.0": neither is a wire natural
    with pytest.raises(TypeError):
        decimal_str(value)


def test_big_conversions_restore_the_cap():
    cap = sys.get_int_max_str_digits()
    n = 7**20000  # about 16.9k digits, past the default cap of 4300
    text = decimal_str(n)
    assert sys.get_int_max_str_digits() == cap
    assert parse_decimal(text) == n
    assert sys.get_int_max_str_digits() == cap
    assert parse_decimal("0042") == 42


def test_big_conversions_never_set_the_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", calls.append)
    n = 7**60000  # about 50.7k digits
    text = decimal_str(n)
    assert len(text) > 50_000
    assert parse_decimal(text) == n
    assert calls == []


def test_conversions_work_under_the_smallest_cap():
    n = 3**209600  # about 100k digits
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = decimal_str(n)
        assert len(text) > 100_000
        assert parse_decimal(text) == n
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(cap)


# the low half of a 2k-digit q * 10**k + low, split at 10**k = 5**k * 2**k:
# all zeros, all nines, and below 2**k, where the 5**k remainder is 0
LOW_HALVES = {"q*10**k": lambda k: 0, "q*10**k+10**k-1": lambda k: 10**k - 1,
              "q*10**k+2**k-1": lambda k: 2**k - 1}

BOUNDARY_CASES = ([("digits", d) for d in (639, 640, 641, 1280, 1281)]
                  + [(kind, k) for k in (1, 639, 640, 641, 1279, 1280, 1281, 2560, 2561, 5000)
                     for kind in ("10**k", "10**k-1")]
                  + [(kind, k) for k in (640, 1280) for kind in LOW_HALVES])


@pytest.mark.parametrize("kind,k", BOUNDARY_CASES)
def test_piece_boundaries_match_the_builtins(kind, k):
    if kind == "digits":
        n = random.Random(k).randrange(10 ** (k - 1), 10**k)
    elif kind in LOW_HALVES:
        n = random.Random(k).randrange(10 ** (k - 1), 10**k) * 10**k + LOW_HALVES[kind](k)
    else:
        n = 10**k - (kind == "10**k-1")
    text = oracle_str(n)
    assert decimal_str(n) == text
    assert decimal_str(-n) == "-" + text
    assert parse_decimal(text) == n
    assert parse_decimal("0" * 700 + text) == n


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 200_000), st.integers(0, 2**64), st.booleans())
def test_decimal_str_matches_str(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    n = -n if negative else n
    assert decimal_str(n) == oracle_str(n)
    if n >= 0:
        assert parse_decimal(oracle_str(n)) == n


def test_every_length_through_three_levels_matches_the_builtins():
    # a text of up to 640 << 2 = 2,560 digits splits at most twice, in exact
    # halves, so 1 to 2,600 digits walks every padding of zero, one and two
    # levels, and on into three
    rng = random.Random(2600)
    for digits in range(1, 2601):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        text = oracle_str(n)
        assert decimal_str(n) == text
        assert parse_decimal(text) == n
        assert parse_decimal("0" * 700 + text) == n
    assert decimal_str(0) == "0" and parse_decimal("0" * 700) == 0


def test_parse_decimal_at_163841_digits():
    # 163,841 digits is the shortest text that takes nine levels of exact
    # halves: its leaves are 321 digits wide, and it is padded to 321 << 9
    assert parse_decimal("1" + "0" * 163_840) == 10**163_840
    rng = random.Random(163_841)
    text = rng.choice("123456789") + "".join(rng.choices("0123456789", k=163_840))
    assert decimal_str(parse_decimal(text)) == text


def test_concurrent_conversions_are_correct_and_leave_the_cap():
    rng = random.Random(4)
    pool = [rng.getrandbits(rng.randrange(66_439, 199_316)) for _ in range(8)]  # 20k-60k digits
    expected = [oracle_str(n) for n in pool]
    cap = sys.get_int_max_str_digits()
    errors = []

    def round_trips(offset):
        try:
            for i in range(25):
                j = (offset + i) % len(pool)
                text = decimal_str(pool[j])
                if text != expected[j] or parse_decimal(text) != pool[j]:
                    errors.append(j)
        except Exception as exc:  # a thread's exception would otherwise be lost
            errors.append(exc)

    threads = [threading.Thread(target=round_trips, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-conversion
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sys.get_int_max_str_digits() == cap
