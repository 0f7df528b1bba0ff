"""Decimal-string boundary: naturals only, and the int-str cap is never read or changed."""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcode import _decimal, codec, witness
from seqcode._decimal import _DIV_LEAF, _divmod, decimal_str, parse_decimal


def oracle_str(n: int) -> str:
    # the builtin conversion, with the cap lifted for this call only
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("text", ["-3", "+3", " 3", "3 ", "1_000", "", "3.0", "٣", "１", "²"])
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


def _divmod_cases(w, rng):
    # divisors of exactly w bits: random, 2**(w-1), 2**w - 1, and one whose
    # low half is all ones, where the top-half estimate overshoots the most;
    # dividends just below, at and above b * 2**w, exact multiples, the
    # largest remainder, and random ones of 2w and 3w bits
    top = 1 << w - 1
    for b in (rng.getrandbits(w) | top, top, 2 * top - 1, top | (1 << w // 2) - 1):
        q = rng.getrandbits(w)
        for a in ((b << w) - 1, b << w, (b << w) + 1, q * b, q * b + b - 1,
                  rng.getrandbits(2 * w), rng.getrandbits(3 * w)):
            yield a, b
    b = rng.getrandbits(2 * _DIV_LEAF) | 1 << 2 * _DIV_LEAF - 1
    for qw in (w, _DIV_LEAF - 1, _DIV_LEAF, _DIV_LEAF + 1):  # quotients at the leaf's edge
        yield b * rng.getrandbits(qw) + rng.randrange(b), b


def test_divmod_matches_the_builtin_at_every_level(monkeypatch):
    # widths on each side of the levels of the recursion, with a record of
    # the steps taken: every branch of the 2n/1n and 3n/2n steps is reached
    pads, tops, fixes = [], [], []
    real_2n1n, real_3n2n = _decimal._div2n1n, _decimal._div3n2n

    def div2n1n(a, b, n):
        pads.append(n & 1 and a.bit_length() - n > _DIV_LEAF)
        return real_2n1n(a, b, n)

    def div3n2n(a12, a3, b, b1, b2, n):
        estimate = (1 << n) - 1 if a12 >> n == b1 else a12 // b1
        tops.append(a12 >> n == b1)
        fixes.append(estimate > (a12 << n | a3) // b)
        return real_3n2n(a12, a3, b, b1, b2, n)

    monkeypatch.setattr(_decimal, "_div2n1n", div2n1n)
    monkeypatch.setattr(_decimal, "_div3n2n", div3n2n)
    rng = random.Random(30)
    for w in [_DIV_LEAF * 2**j + d for j in range(5) for d in (-3, 3)]:
        for a, b in _divmod_cases(w, rng):
            assert _divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())
    assert any(pads) and any(tops) and any(fixes)
    assert _divmod(0, 3) == (0, 0) and _divmod(2**9000, 1) == (2**9000, 0)
    with pytest.raises(ZeroDivisionError):
        _divmod(5, 0)


# the width first: a plain bounded draw crowds at the top width
@settings(max_examples=50, deadline=None)
@given(st.integers(1, 24_000).flatmap(lambda w: st.tuples(st.integers(0, 2 ** (3 * w)),
                                                          st.integers(1, 2**w))))
def test_divmod_oracle(ab):
    a, b = ab
    assert _divmod(a, b) == divmod(a, b)


def test_no_builtin_division_is_wide_on_both_sides(monkeypatch):
    # the builtin, schoolbook on CPython 3.10 and 3.11, divides only where the
    # divisor or the quotient is at most _DIV_LEAF bits (+1 for the odd-n pad),
    # and each wide operation divides through _divmod
    calls = []

    def spy(a, b):
        q, r = divmod(a, b)
        calls.append(min(b.bit_length(), q.bit_length()))
        return q, r

    for module in (_decimal, codec, witness):
        monkeypatch.setattr(module, "divmod", spy, raising=False)
    rng = random.Random(336)
    n, m = rng.getrandbits(336_000), rng.getrandbits(1_000_000)
    u, v = rng.getrandbits(1_000_000), rng.getrandbits(10_000)
    wide = [(lambda: codec._sqrtrem(n), (math.isqrt(n), n - math.isqrt(n) ** 2)),
            (lambda: parse_decimal(decimal_str(m)), m),
            (lambda: witness._residues(u, v, 8), [u % (1 + t * v) for t in range(1, 9)])]
    for operation, expected in wide:
        calls.clear()
        assert operation() == expected
        assert len(calls) > 10 and max(calls) <= _DIV_LEAF + 1


@pytest.mark.parametrize("limbs", [4, 16, 64])
def test_the_digit_split_recurses_logarithmically_deep(limbs, monkeypatch):
    # a dividend of `limbs` base-2**n digits is split in halves, so the
    # recursion through _divmod is O(log limbs) deep; one pass per digit
    # would be `limbs` deep, correct but quadratic in them
    real, depth, deepest = _decimal._divmod, [0], [0]

    def spy(a, b):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return real(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_decimal, "_divmod", spy)
    n = 2 * _DIV_LEAF + 7
    rng = random.Random(limbs)
    a, b = rng.getrandbits(limbs * n) | 1 << limbs * n - 1, rng.getrandbits(n) | 1 << n - 1
    assert _decimal._divmod(a, b) == divmod(a, b)
    assert deepest[0] <= math.log2(limbs) + 2


@pytest.mark.parametrize("off", [1, -1])
def test_an_off_by_one_division_fails_its_check(off, monkeypatch):
    real = _decimal._div2n1n

    def div2n1n(a, b, n):  # a == q*b + r still holds, but r leaves [0, b)
        q, r = real(a, b, n)
        return q + off, r - off * b

    monkeypatch.setattr(_decimal, "_div2n1n", div2n1n)
    b = random.Random(off).getrandbits(3 * _DIV_LEAF) | 1
    with pytest.raises(RuntimeError, match="^a division failed its check"):
        _divmod(b * b + 7, b)
    with pytest.raises(RuntimeError, match="^a division failed its check"):
        decimal_str(10**20000)
