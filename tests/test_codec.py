"""Pairing, entry readers, and the append-only sequence contract."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcode import codec
from seqcode._decimal import decimal_str
from seqcode.codec import (
    NotAPairCode,
    SeqHandle,
    beta,
    beta_total,
    is_pair_code,
    isqrt,
    normalize,
    pair,
    seq_append,
    seq_build,
    seq_decode,
    seq_empty,
    unpair,
    verify_seq_step,
)


def brute_force_codes(limit: int) -> set[int]:
    """Every value of pair() below limit, found by plain enumeration."""
    codes = set()
    s = 0
    while s * s < limit:
        for x in range(s + 1):
            w = s * s + x
            if w < limit:
                codes.add(w)
        s += 1
    return codes


# ---------------------------------------------------------------- pairing


def test_pair_fixed_values():
    assert pair(0, 0) == 0
    assert pair(1, 2) == 10
    assert pair(2, 1) == 11


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        pair(0, -2)


def test_isqrt_fixed_values():
    assert isqrt is math.isqrt  # the stdlib root itself, not a wrapper
    assert isqrt(0) == 0
    assert isqrt(10) == 3
    assert isqrt(5544) == 74


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 15, 16, 17, 10**12, 2**128, 2**128 + 1])
def test_isqrt_against_stdlib(n):
    assert isqrt(n) == math.isqrt(n)


def test_isqrt_exact_around_a_huge_square():
    s = random.Random(5).getrandbits(10**5) | 1 << (10**5 - 1)
    assert isqrt(s * s - 1) == s - 1
    assert isqrt(s * s) == s
    assert isqrt((s + 1) * (s + 1) - 1) == s


def test_isqrt_rejects_negatives():
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=2**130))
def test_isqrt_oracle(n):
    s = isqrt(n)
    assert s == math.isqrt(n)
    assert s * s <= n < (s + 1) * (s + 1)


def test_unpair_fixed_values():
    assert unpair(10) == (1, 2)
    assert unpair(0) == (0, 0)
    with pytest.raises(NotAPairCode):
        unpair(3)


def test_unpair_3_has_no_preimage_by_search():
    assert 3 not in {pair(x, y) for x in range(4) for y in range(4)}


def test_code_detection_matches_brute_force():
    codes = brute_force_codes(5000)
    for w in range(5000):
        assert is_pair_code(w) == (w in codes)


def test_non_codes_fill_the_upper_half_interval():
    # codes are [s*s, s*s + s]; non-codes are (s*s + s, s*s + 2s]
    for s in range(1, 60):
        for w in range(s * s, (s + 1) * (s + 1)):
            assert is_pair_code(w) == (w <= s * s + s)


def test_roundtrip_exhaustive_small():
    for x in range(60):
        for y in range(60):
            assert unpair(pair(x, y)) == (x, y)


@given(st.integers(min_value=0, max_value=2**128), st.integers(min_value=0, max_value=2**128))
def test_roundtrip_property(x, y):
    assert unpair(pair(x, y)) == (x, y)


def test_division_uniqueness_small_box():
    # d*x + y with y < d decodes uniquely: no two encodings collide
    for d in range(1, 31):
        seen = {}
        for x in range(31):
            for y in range(d):
                n = d * x + y
                assert n not in seen
                seen[n] = (x, y)
                assert (n // d, n % d) == (x, y)


# ---------------------------------------------------------------- entry readers


def test_beta_fixed_values():
    assert beta(5544, 0) == 5
    assert beta(5544, 1) == 3
    assert beta(3, 0) is None


def test_beta_is_deterministic():
    for w, i in [(5544, 0), (5544, 7), (3, 2), (0, 0)]:
        assert beta(w, i) == beta(w, i)


def test_beta_total_fixed_values():
    assert beta_total(5544, 1) == 3
    assert beta_total(3, 7) == 0
    assert beta_total(0, 0) == 0


def test_beta_total_agrees_with_beta_on_codes():
    for w in sorted(brute_force_codes(2000)):
        for i in range(5):
            assert beta_total(w, i) == beta(w, i)


def test_beta_total_never_raises_small_sweep():
    for w in range(10**4 + 1):
        for i in range(21):
            assert beta_total(w, i) >= 0


@given(st.integers(min_value=0, max_value=2**100), st.integers(min_value=0, max_value=40))
def test_beta_total_never_raises(w, i):
    assert beta_total(w, i) >= 0


# ---------------------------------------------------------------- sequences


def test_seq_empty():
    assert seq_empty() == SeqHandle(0, 0)
    assert seq_decode(seq_empty()) == []


def test_append_to_empty_reaches_known_code():
    h = seq_append(seq_empty(), 7)
    assert h == SeqHandle(1, 203)
    assert 7 % 8 == 7  # the planted remainder is x itself
    assert beta_total(h.w, 0) == 7


def test_append_to_empty_verifies_for_any_entry():
    for x in [0, 1, 7, 255, 2**64 - 1]:
        h = seq_append(seq_empty(), x)
        assert verify_seq_step(0, 0, x, h.w)


def test_verify_seq_step_fixed_values():
    assert verify_seq_step(0, 0, 7, 203)
    assert not verify_seq_step(0, 0, 7, 0)  # position 0 of code 0 reads 0, not 7


def test_verify_seq_step_splits_each_code_once(monkeypatch):
    h = seq_build(range(1, 9))
    nxt = seq_append(h, 99)
    calls = []
    real_isqrt = codec.isqrt
    monkeypatch.setattr(codec, "isqrt", lambda n: calls.append(n) or real_isqrt(n))
    assert verify_seq_step(h.w, h.len, 99, nxt.w)
    assert len(calls) == 2  # one square root per code, not one per position


def test_verify_seq_step_checks_every_position():
    h = seq_build(range(1, 9))
    nxt = seq_append(h, 99)
    last_differs = seq_build([1, 2, 3, 4, 5, 6, 7, 100])
    assert not verify_seq_step(last_differs.w, 8, 99, nxt.w)
    assert not verify_seq_step(h.w, 8, 98, nxt.w)
    with pytest.raises(ValueError):
        verify_seq_step(h.w, -1, 99, nxt.w)


def test_decode_fixed_values():
    assert seq_decode(SeqHandle(2, 5544)) == [5, 3]
    assert seq_decode(SeqHandle(0, 987654321)) == []
    assert seq_decode(SeqHandle(1, 3)) == [0]


def test_build_roundtrip_examples():
    assert seq_build([]) == seq_empty()
    assert seq_decode(seq_build([5, 3])) == [5, 3]
    assert seq_decode(seq_build([2**64 - 1, 0, 1])) == [2**64 - 1, 0, 1]


def test_build_roundtrip_exhaustive_short():
    for length in range(5):
        for xs in itertools.product(range(8), repeat=length):
            assert seq_decode(seq_build(xs)) == list(xs)


def test_build_codes_are_pair_codes():
    for xs in ([1], [0, 0], [9, 2, 5], [2**40, 1]):
        h = seq_build(xs)
        assert is_pair_code(h.w)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6))
def test_seq_contract_property(xs):
    h = seq_empty()
    for x in xs:
        nxt = seq_append(h, x)
        assert verify_seq_step(h.w, h.len, x, nxt.w)
        h = nxt
    assert seq_decode(h) == xs


def _member(h: SeqHandle, z: int) -> bool:
    return any(beta_total(h.w, i) == z for i in range(h.len))


entries = st.one_of(st.integers(0, 3), st.integers(0, 2**256))


@settings(max_examples=40, deadline=None)
@given(st.lists(entries, max_size=7), entries, entries)
def test_append_adjoins_exactly_one_member(xs, y, z):
    # Pudlak's adjunction: z is a member of s + y iff z is a member of s or z = y
    s = seq_build(xs)
    t = seq_append(s, y)
    for cand in xs + [y, z, z + 1, 0]:
        assert _member(t, cand) == (_member(s, cand) or cand == y)
        assert not _member(seq_empty(), cand)


def test_append_onto_non_code_starts_from_code_zero():
    non_code = 3
    assert not is_pair_code(non_code)
    h = seq_append(SeqHandle(3, non_code), 11)
    assert seq_decode(h) == [0, 0, 0, 11]
    # code 0 and an explicit run of k zeros both carry u = 0 and a v that
    # divides lcm(1..k+1), so the appended code is the same either way
    for k in range(1, 7):
        for x in [0, 11, 2**70]:
            assert seq_append(SeqHandle(k, non_code), x) == seq_build([0] * k + [x])


def test_k24_code_is_pinned():
    # golden SHA-256 of the decimal code: a different digest is a wire change
    rng = random.Random(24)
    h = seq_build([rng.getrandbits(64) for _ in range(24)])
    digest = hashlib.sha256(decimal_str(h.w).encode()).hexdigest()
    assert digest == "1492f84062d57de812ff71fd8c0a40371957d1f25485ad6591f427b1f89498fb"


def test_seq_contract_seeded_random():
    rng = random.Random(1815)
    for _ in range(40):
        xs = [rng.randrange(2**64) for _ in range(rng.randrange(9))]
        h = seq_build(xs)
        assert seq_decode(h) == xs
        assert verify_seq_step(h.w, h.len, 12345, seq_append(h, 12345).w)


# ---------------------------------------------------------------- normalize


def test_normalize_empty_prefix():
    assert normalize(0, 0) == 0
    assert normalize(5544, 0) == 0


def test_normalize_keeps_pair_codes():
    assert normalize(5544, 2) == 5544


def test_normalize_rebuilds_non_codes():
    w0 = normalize(3, 2)
    assert is_pair_code(w0)
    assert beta(w0, 0) == 0
    assert beta(w0, 1) == 0


def test_normalize_maps_non_codes_to_zero():
    for w in [3, 7, pair(5, 9) + 20, 2**200 + 2**100 + 1]:
        assert not is_pair_code(w)
        for k in [1, 2, 24]:
            assert normalize(w, k) == 0


def test_normalize_matches_total_reader():
    for w in [0, 3, 7, 5544, 99999]:
        for k in range(4):
            w0 = normalize(w, k)
            assert is_pair_code(w0)
            for i in range(k):
                assert beta(w0, i) == beta_total(w, i)


# ---------------------------------------------------------------- handles


def test_handle_json_roundtrip():
    h = SeqHandle(3, 2**100)
    blob = h.to_json()
    assert blob == {"len": "3", "w": str(2**100)}
    assert SeqHandle.from_json(blob) == h


def test_handle_json_rejects_negative():
    with pytest.raises(ValueError):
        SeqHandle.from_json({"len": "-1", "w": "0"})


def test_handle_rejects_negative_fields():
    with pytest.raises(ValueError):
        SeqHandle(-3, 5)
    with pytest.raises(ValueError):
        SeqHandle(3, -5)


def test_append_rejects_negative_entry():
    with pytest.raises(ValueError):
        seq_append(seq_empty(), -3)


def test_naturals_must_be_ints():
    # a float entry used to build SeqHandle(len=2, w=798336.0), and a bool
    # length used to serialize as "True"
    with pytest.raises(TypeError):
        seq_build([5, 3.0])
    with pytest.raises(TypeError):
        SeqHandle(True, 5)
    with pytest.raises(TypeError):
        SeqHandle(2, 798336.0)
    with pytest.raises(TypeError):
        beta_total(5544, True)
    with pytest.raises(TypeError):
        verify_seq_step(0, 0.0, 7, 203)
