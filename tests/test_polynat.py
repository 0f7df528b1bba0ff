"""The lexicographically ordered polynomial carrier."""

import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcode.models.polynat import add, canonical, from_json, le, mul, show, subtract, to_json

ONE, X = (1,), (0, 1)


def order_key(p):
    # le's order as a sort key: the degree first, then the coefficients from the top down
    return (len(p), p[::-1])


def small_box():
    return sorted({canonical(cs) for cs in itertools.product(range(4), repeat=2)})


def test_canonical_form_strips_trailing_zeros():
    # one tuple per polynomial: spellings that differ by trailing zeros meet
    assert canonical((1, 0, 0)) == canonical((1,)) == (1,)
    assert canonical((0, 0)) == canonical(()) == ()
    assert canonical(c for c in (0, 2, 0)) == (0, 2)


def test_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        from_json(["1", "-2"])


def test_rejects_non_int_coefficients():
    # the wire takes decimal strings only: a bool, a float or None is a TypeError
    for bad in ([True], [1.5], ["1", False], ["2", 0.0], [None]):
        with pytest.raises(TypeError, match="^expected a decimal string, got "):
            from_json(bad)


def test_add_and_mul_fixed_values():
    assert add(ONE, X) == (1, 1)
    assert mul(add(ONE, X), add(ONE, X)) == (1, 2, 1)
    assert mul(X, X) == (0, 0, 1)
    assert mul((), add(ONE, X)) == ()


def test_lex_order_fixed_values():
    assert le(ONE, X)
    assert not le(X, (2,))
    assert le((5, 1), (0, 2))  # degree ties, leading decides
    assert le((0, 1), (5, 1))  # leading ties, constant decides


def test_order_is_total_and_antisymmetric_on_box():
    box = small_box()
    for p in box:
        for q in box:
            assert le(p, q) or le(q, p)
            if le(p, q) and le(q, p):
                assert p == q


def test_sorted_box_starts_at_the_constants():
    box = sorted({canonical(cs) for cs in itertools.product(range(4), repeat=3)}, key=order_key)
    assert box[:5] == [(), ONE, (2,), (3,), X]
    assert len(box) == 64
    assert all(le(p, q) and not le(q, p) for p, q in zip(box, box[1:]))


def test_subtract_fixed_values():
    assert subtract(X, ONE) is None
    assert subtract(add(X, (2,)), X) == (2,)
    assert subtract(ONE, ONE) == ()
    assert subtract((), ONE) is None


def test_subtract_decides_existence_exactly_on_box():
    # independent bound: any z with z + q == p has coefficients below p's
    box = small_box()
    for p in box:
        for q in box:
            z = subtract(p, q)
            exists = any(add(cand, q) == p for cand in box)
            assert (z is not None) == exists
            if z is not None:
                assert add(z, q) == p


def test_json_roundtrip():
    cs = (12, 0, 3)
    assert to_json(cs) == ["12", "0", "3"]
    assert from_json(to_json(cs)) == cs
    assert to_json(()) == [] and from_json(["12", "0", "3", "0"]) == cs


def test_json_coefficients_are_decimal_naturals():
    # the wire writes each coefficient as plain ASCII digits, no sign and no leading zero
    rng = random.Random(3)
    for _ in range(200):
        cs = canonical(rng.choice((0, 1, rng.getrandbits(200))) for _ in range(rng.randrange(6)))
        wire = to_json(cs)
        assert all(c.isascii() and c.isdigit() and (c == "0" or c[0] != "0") for c in wire)
        assert [int(c) for c in wire] == list(cs) and from_json(wire) == cs


def test_json_roundtrips_coefficients_past_the_int_str_cap():
    cap = sys.get_int_max_str_digits()
    cs = (7**20000, 0, 1)  # about 16.9k digits, past the default cap of 4300
    wire = to_json(cs)
    assert len(wire[0]) > 4300 and wire[1:] == ["0", "1"]
    assert from_json(wire) == cs
    assert sys.get_int_max_str_digits() == cap


# coefficient lists with zeros (trailing ones too) and big entries
coeff_lists = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=7)


@given(coeff_lists, coeff_lists)
def test_sum_and_product_match_the_canonical_convolution(xs, ys):
    n = max(len(xs), len(ys))
    padded = [list(cs) + [0] * (n - len(cs)) for cs in (xs, ys)]
    conv = [0] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            conv[i + j] += a * b
    p, q = canonical(xs), canonical(ys)
    sum_, product = canonical(a + b for a, b in zip(*padded)), canonical(conv)
    # canonical inputs give canonical tuples, with no trailing zero
    for got, want in ((add(p, q), sum_), (mul(p, q), product)):
        assert got == want and type(got) is tuple and got[-1:] != (0,)


@given(coeff_lists, coeff_lists)
def test_order_agrees_with_the_degree_first_key(xs, ys):
    p, q = canonical(xs), canonical(ys)
    assert (le(p, q), le(q, p)) == (order_key(p) <= order_key(q), order_key(q) <= order_key(p))


def test_canonical_strips_trailing_zeros_only():
    assert canonical((0, 2, 0)) == (0, 2) and canonical([1, 0, 3]) == (1, 0, 3)
    assert type(canonical([1, 0])) is tuple


def test_show_fixed_values():
    assert show(()) == "0"
    assert show((1, 2, 1)) == "1 + 2*X + X^2"
    assert show((0, 1)) == "X" and show((0, 0, 3)) == "3*X^2" and show((5, 1, 0, 1)) == "5 + X + X^3"


def test_show_formats_wide_coefficients_past_the_int_str_cap():
    # 5,001 digits, more than the default cap of 4,300 and the least of 640
    wide = 10**5000
    digits = "1" + "0" * 5000
    assert show((wide,)) == digits
    assert show((wide, wide, 1, wide)) == f"{digits} + {digits}*X + X^2 + {digits}*X^3"


def test_from_json_takes_decimal_naturals_only():
    for bad in ("+1", " 1", "1_0", "-1", "", "1.0"):
        with pytest.raises(ValueError):
            from_json(["0", bad])
    with pytest.raises(TypeError):
        from_json([1])
    # the wire form is a JSON array: a string or an object is not read element by element
    for bad in ("12", {"0": "1"}, ("1", "2")):
        with pytest.raises(TypeError, match="^expected a list of decimal strings, got "):
            from_json(bad)
    assert from_json(["1", "0"]) == (1,) and from_json([]) == ()


def test_from_json_roundtrips_past_the_int_str_cap():
    cs = (7**20000, 0, 1)  # about 16.9k digits, past the default cap of 4300
    assert from_json(to_json(cs)) == cs

