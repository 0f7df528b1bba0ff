"""Pairing, entry readers, and the append-only sequence contract."""

import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcode import codec, witness
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
from seqcode.witness import (
    RecodeWitness,
    factor_inverse,
    lcm_upto,
    product_inverse,
    recode_extend,
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


def test_is_pair_code_takes_naturals_only():
    # True used to count as the code 1, and -1 raised math.isqrt's message
    with pytest.raises(TypeError, match="w must be an int, got bool"):
        is_pair_code(True)
    with pytest.raises(ValueError, match="w must be nonnegative, got -1"):
        is_pair_code(-1)


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


def _assert_sqrtrem(n, root=None):
    s, r = codec._sqrtrem(n)
    assert s == (math.isqrt(n) if root is None else root), n.bit_length()
    assert s * s + r == n and 0 <= r <= 2 * s


def _root_widths():
    # every 61st width up to 20,000 bits, then each side of the widths where the
    # recursion gains a level, and one past 1M bits (the stdlib root there
    # takes ~0.2 s a call)
    yield from range(0, 20001, 61)
    for j in range(9):
        yield from (codec._ROOT_LEAF * 2**j - 3, codec._ROOT_LEAF * 2**j + 3)
    yield codec._ROOT_LEAF * 2**9 + 3


def test_sqrtrem_against_the_stdlib_root_at_every_width():
    rng = random.Random(29)
    for b in _root_widths():
        n = rng.getrandbits(b)
        h = math.isqrt(n)
        _assert_sqrtrem(n, h)
        _assert_sqrtrem(2**b - 1)
        _assert_sqrtrem(2**b)
        # squares and their neighbours, whose roots are known: h*h - 1 and
        # h*h + 2h carry the largest remainder, 2s
        _assert_sqrtrem(h * h, h)
        _assert_sqrtrem(max(h * h - 1, 0), max(h - 1, 0))
        _assert_sqrtrem(h * h + 2 * h, h)


# the width first: a plain bounded draw crowds at 30,000 bits
@given(st.integers(min_value=0, max_value=30000).flatmap(lambda b: st.integers(0, 2**b)))
def test_sqrtrem_oracle(n):
    _assert_sqrtrem(n)


def test_a_wide_split_takes_one_root_at_the_leaf(monkeypatch):
    # the k = 24 code is ~75k bits; its one isqrt sees at most _ROOT_LEAF of them
    xs = [random.Random(24).getrandbits(64) for _ in range(24)]
    h = seq_build(xs)
    assert h.w.bit_length() > 70000
    roots, real_isqrt = [], codec.isqrt
    monkeypatch.setattr(codec, "isqrt", lambda n: roots.append(n) or real_isqrt(n))
    assert pair(*unpair(h.w)) == h.w
    assert [n.bit_length() <= codec._ROOT_LEAF for n in roots] == [True]
    roots.clear()
    assert seq_decode(h) == xs  # still one split, so one root, per entry
    assert len(roots) == 24 and max(roots).bit_length() <= codec._ROOT_LEAF


@pytest.mark.parametrize("off", [1, -1])
def test_a_wrong_leaf_root_fails_the_self_check(off, monkeypatch):
    w = seq_build(range(2**64, 2**64 + 16)).w
    monkeypatch.setattr(codec, "isqrt", lambda n: math.isqrt(n) + off)
    for split in (unpair, is_pair_code, lambda w: beta_total(w, 3)):
        with pytest.raises(RuntimeError, match="^a square root failed its check"):
            split(w)


def test_non_codes_above_the_root_leaf():
    s = random.Random(40).getrandbits(40000) | 1 << 39999
    assert unpair(s * s + s) == (s, 0) and is_pair_code(s * s + s)
    for w in (s * s + s + 1, s * s + 2 * s):  # past the window x <= s, short of (s+1)**2
        assert not is_pair_code(w)
        with pytest.raises(NotAPairCode):
            unpair(w)
        assert beta_total(w, 0) == beta_total(w, 7) == 0


def test_unpair_fixed_values():
    assert unpair(10) == (1, 2)
    assert unpair(0) == (0, 0)
    with pytest.raises(NotAPairCode):
        unpair(3)


def test_a_non_code_past_the_int_str_cap_shows_in_full():
    w = pair(5, 2**20000) + 2**20001
    with pytest.raises(NotAPairCode) as info:
        unpair(w)
    assert str(info.value) == decimal_str(w)


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


def test_verify_seq_step_validates_the_entry():
    # x goes through the same check as seq_append's entry: a float or a bool
    # is a TypeError, a negative a ValueError, never a verdict
    two = seq_build([4, 5])
    three = seq_append(two, 9)
    for w, k, x, w_new in [(0, 0, 7.0, 203), (0, 0, True, seq_append(seq_empty(), 1).w),
                           (two.w, 2, 9.0, three.w)]:
        with pytest.raises(TypeError):
            seq_append(SeqHandle(k, w), x)
        with pytest.raises(TypeError):
            verify_seq_step(w, k, x, w_new)
    with pytest.raises(ValueError):
        verify_seq_step(0, 0, -1, 203)
    assert verify_seq_step(two.w, 2, 9, three.w)


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


# a large first entry, then smaller ones: the base holds for most steps, and
# for every step when the first entry is a multiple of lcm(1..10)
base_holding = st.builds(
    lambda first, rest: [first] + rest,
    st.one_of(st.integers(2**64, 2**256), st.integers(1, 2**130).map(lambda m: m * lcm_upto(10))),
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=9))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1), st.integers(0, 2**256)),
             max_size=10),
    base_holding))
@example([lcm_upto(10) * 2**200] + [2**64 - 1, 0, 3, 1, 2**63, 2, 0, 1, 3])
@example([0] * 10)
def test_build_is_the_append_fold(xs):
    # handle for handle: every prefix builds to the code its appends reach,
    # steps that resume the level loop where the base holds included
    h = seq_empty()
    for k, x in enumerate(xs):
        assert seq_build(xs[:k]) == h
        h = seq_append(h, x)
    assert seq_build(xs) == h
    assert seq_build(iter(xs)) == h
    assert seq_build(x for x in xs) == h


def test_build_splits_no_code_and_checks_once_at_the_last_base(monkeypatch):
    xs = list(range(1, 9))
    # the rebase chain, read off the appended codes: v_k is the base of k entries
    bases, h = [0], seq_empty()
    for x in xs:
        h = seq_append(h, x)
        bases.append(unpair(h.w)[1])
    assert [k for k in range(8) if bases[k + 1] == bases[k]] == [5]  # the base holds once
    # a step from k entries runs level k alone where the base holds, else levels 1..k
    levels = sum(1 if bases[k + 1] == bases[k] else k for k in range(8))
    roots, checks, level_runs = [], [], []
    real_isqrt, real_carries, real_inverse = codec.isqrt, witness._carries, witness._inverse
    monkeypatch.setattr(codec, "isqrt", lambda n: roots.append(n) or real_isqrt(n))
    monkeypatch.setattr(witness, "_carries",
                        lambda u, vp, res: checks.append((vp, list(res))) or real_carries(u, vp, res))
    monkeypatch.setattr(witness, "_inverse", lambda *a: level_runs.append(a) or real_inverse(*a))
    h = seq_build(xs)
    assert roots == []  # the steps carry (u, v), so no code is unpaired
    # one full-contract check, of the result at the last base against every entry
    assert checks == [(bases[8], xs)]
    assert len(level_runs) == levels == 24  # one _inverse per level run
    assert seq_decode(h) == xs
    checks.clear()
    assert seq_build([]) == seq_empty() and checks == []


def test_a_build_computes_one_lcm_upto_per_step(monkeypatch):
    # the fold grows the step modulus lcm(1..k+1) by one math.lcm per entry and
    # checks nothing per step; lcm_upto(k) runs once, in the closed-form base check
    calls, real = [], witness.lcm_upto

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(witness, "lcm_upto", counted)
    monkeypatch.setattr(codec, "lcm_upto", counted)  # codec imports it by name
    rng = random.Random(8)
    for k in (0, 1, 2, 8, 24):
        # 64-bit entries, then a wide first entry whose base every later step keeps
        for xs in ([rng.getrandbits(64) for _ in range(k)], [lcm_upto(k) * 2**200, *[3] * k][:k]):
            calls.clear()
            assert seq_decode(seq_build(xs)) == xs
            assert calls == ([k] if k else []), k
    h = seq_build([5, 3])
    calls.clear()
    assert seq_decode(seq_append(h, 9)) == [5, 3, 9]
    assert calls == [3]  # the append's step modulus, which its base check reuses


def test_build_catches_a_wrong_level_that_later_steps_carry(monkeypatch):
    # the base holds at every step, so step k runs level k alone and later steps
    # resume from its code: a wrong middle level is caught by the one check
    # at the end, which reads the result at every position
    rng = random.Random(5)
    xs = [lcm_upto(10) * 2**200] + [rng.getrandbits(64) for _ in range(9)]
    real_inverse = witness._inverse
    levels = []
    monkeypatch.setattr(witness, "_inverse",
                        lambda t, v, i: levels.append(t) or real_inverse(t, v, i) + (t == 4))
    with pytest.raises(RuntimeError, match="^recode failed its own contract: {") as info:
        seq_build(xs)
    assert levels == list(range(1, 10))  # every level ran once, 4 among them
    # the message names the last step, k = 9 entries onto the base of all ten
    assert '"x":"' + decimal_str(xs[-1]) + '","k":"9"' in str(info.value)


def test_build_rejects_a_wrong_inverse(monkeypatch):
    # every step's recode is checked against the contract, not trusted
    real = witness._pprime
    monkeypatch.setattr(witness, "_pprime", lambda *a: real(*a) + 1)
    with pytest.raises(RuntimeError):
        seq_build(range(1, 9))
    with pytest.raises(RuntimeError):
        seq_build([3, 1])
    # step 1 of [4, 1] keeps v = 4 and runs level 1 alone: it is checked too
    with pytest.raises(RuntimeError, match="^recode failed its own contract: {"):
        seq_build([4, 1])


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


def _build_grid():
    # k = 0..48 entries from {0..3} and 64-bit values, every third list ending
    # in a ~2^200 entry; then shapes that hold the base: a large first entry
    # (a multiple of lcm(1..k), or a 64-bit value) followed by smaller ones
    rng = random.Random(1717)
    for k in range(49):
        xs = [rng.choice((rng.randrange(4), rng.getrandbits(64))) for _ in range(k)]
        yield xs[:-1] + [rng.getrandbits(200)] if k % 3 == 1 else xs
    for k in (2, 6, 12, 24):
        yield [lcm_upto(k) * rng.getrandbits(130)] + [rng.getrandbits(64) for _ in range(k - 1)]
    for k in (5, 17, 48):
        yield [rng.getrandbits(64)] + [rng.randrange(4) for _ in range(k - 1)]


def test_build_codes_of_a_seeded_grid_are_pinned():
    # golden SHA-256 over every handle of the grid, about half of whose steps
    # keep their base; a different digest is a wire change
    digest = hashlib.sha256()
    for xs in _build_grid():
        h = seq_build(xs)
        digest.update(f"{h.len}:{h.w:x}\n".encode())
    assert digest.hexdigest() == "73efcf58e04c7cc1ecc3d84d0e7f65cb8ba754420d52cd24a2c6374fcbb8fda9"


def test_a_build_is_one_recode_at_the_last_base():
    # every prefix xs[:k], k = 0..48, of one seeded list per entry width: its
    # build and its append fold are both one recode of all k entries at the
    # last base v_k of the rebase chain, with no reduction between levels
    rng = random.Random(4848)
    for width in (1, 8, 64, 200):
        xs = [rng.getrandbits(width) for _ in range(48)]
        h, v = seq_empty(), 0
        for k in range(49):
            want = pair(witness._recode(xs[:k], v) if k else 0, v)
            assert seq_build(xs[:k]).w == h.w == want, (width, k)
            if k < 48:
                v = codec._rebase(v, lcm_upto(k + 1), xs[k])
                h = seq_append(h, xs[k])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1), st.integers(0, 2**200)),
                min_size=1, max_size=30))
@example([0])
@example([lcm_upto(12) * 2**100] + [5] * 11)
def test_the_last_base_has_a_closed_form(xs):
    # the rebase chain collapses: after k >= 1 entries the base is the least
    # positive multiple of lcm(1..k) at least max(xs), so a build that recodes
    # once at its last base needs no chain of bases
    v = 0
    for k, x in enumerate(xs, 1):
        v = codec._rebase(v, lcm_upto(k), x)
        assert v == codec._rebase(0, lcm_upto(k), max(xs[:k])), k
    assert unpair(seq_build(xs).w)[1] == v


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


RECORDS = {
    "handle": lambda: SeqHandle(3, 2**100),
    # 22.8k digits, past the default int-str cap: str() once fell back on repr() and raised
    "handle-k24": lambda: seq_build([2**64 - 1] * 24),
    "factor-inverse": lambda: factor_inverse(2, 7, 3),
    "product-inverse": lambda: product_inverse(3, 12, 5),
    "recode": lambda: RecodeWitness(68, 6, 60, 9, 2, recode_extend(68, 6, 60, 9, 2)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_share_one_wire_form(name):
    # handles and witnesses: a decimal string per field in declaration order,
    # the type tag first on a witness, and str() is that form at any size
    record = RECORDS[name]()
    cls, names = type(record), [f.name for f in dataclasses.fields(record)]
    blob = record.to_json()
    tag = ["type"] if isinstance(record, witness._Witness) else []
    assert list(blob) == tag + names
    assert [blob[n] for n in names] == [decimal_str(getattr(record, n)) for n in names]
    assert cls.from_json(json.loads(str(record))) == record
    for field in names:
        with pytest.raises(KeyError):
            cls.from_json({k: v for k, v in blob.items() if k != field})
        with pytest.raises(TypeError):
            cls.from_json({**blob, field: 7})
        with pytest.raises(ValueError):
            cls.from_json({**blob, field: "-1"})
        with pytest.raises(TypeError):
            dataclasses.replace(record, **{field: True})


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
