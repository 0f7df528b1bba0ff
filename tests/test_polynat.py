"""The lexicographically ordered polynomial carrier."""

import itertools
import operator
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcode.models.polynat import (
    ONE, X, ZERO, PolyNat, add, canonical, from_json, mul, show, subtract, to_json,
)


def small_box():
    return sorted({PolyNat(cs) for cs in itertools.product(range(4), repeat=2)})


def test_canonical_form_strips_trailing_zeros():
    assert PolyNat((1, 0, 0)) == PolyNat((1,))
    assert PolyNat(()) == ZERO
    assert PolyNat((0, 0)).coeffs == ()
    assert PolyNat((0, 2, 0)).coeffs == (0, 2)


def test_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        PolyNat((1, -2))


def test_rejects_non_int_coefficients():
    # a bool or a float used to pass: True serialised as "True", 1.5 crashed to_json
    for bad in ((True,), (1.5,), (1, False), (2, 0.0), ("3",)):
        with pytest.raises(TypeError):
            PolyNat(bad)


def test_degree():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert (X * X).degree == 2


def test_add_and_mul_fixed_values():
    assert ONE + X == PolyNat((1, 1))
    assert (ONE + X) * (ONE + X) == PolyNat((1, 2, 1))
    assert X * X == PolyNat((0, 0, 1))
    assert ZERO * (ONE + X) == ZERO


def test_lex_order_fixed_values():
    assert ONE <= X
    assert not X <= PolyNat((2,))
    assert PolyNat((5, 1)) <= PolyNat((0, 2))  # degree ties, leading decides
    assert PolyNat((0, 1)) <= PolyNat((5, 1))  # leading ties, constant decides


def test_order_is_total_and_antisymmetric_on_box():
    box = small_box()
    for p in box:
        for q in box:
            assert (p <= q) or (q <= p)
            if p <= q and q <= p:
                assert p == q


def test_sorted_box_starts_at_the_constants():
    box = sorted({PolyNat(cs) for cs in itertools.product(range(4), repeat=3)})
    assert box[:5] == [ZERO, ONE, PolyNat((2,)), PolyNat((3,)), X]
    assert len(box) == 64


def test_subtract_fixed_values():
    assert subtract(X.coeffs, ONE.coeffs) is None
    assert subtract((X + PolyNat((2,))).coeffs, X.coeffs) == (2,)
    assert subtract(ONE.coeffs, ONE.coeffs) == ()
    assert subtract(ZERO.coeffs, ONE.coeffs) is None


def test_subtract_decides_existence_exactly_on_box():
    # independent bound: any z with z + q == p has coefficients below p's
    box = small_box()
    for p in box:
        for q in box:
            z = subtract(p.coeffs, q.coeffs)
            exists = any(cand + q == p for cand in box)
            assert (z is not None) == exists
            if z is not None:
                assert add(z, q.coeffs) == p.coeffs


def test_str_and_repr():
    assert str(ZERO) == "0"
    assert str(PolyNat((1, 2, 1))) == "1 + 2*X + X^2"
    assert "PolyNat" in repr(X)


def test_wide_coefficients_are_formatted_past_the_int_str_cap():
    # 5,001 digits, more than the default cap of 4,300 and the least of 640
    wide = 10**5000
    digits = "1" + "0" * 5000
    with pytest.raises(ValueError, match=f"^coefficients must be nonnegative, got -{digits}$"):
        PolyNat((-wide,))
    assert str(PolyNat((wide,))) == digits
    assert str(PolyNat((wide, wide, 1, wide))) == f"{digits} + {digits}*X + X^2 + {digits}*X^3"


def test_json_roundtrip():
    p = PolyNat((12, 0, 3))
    assert p.to_json() == ["12", "0", "3"]
    assert PolyNat.from_json(p.to_json()) == p


def test_json_coefficients_are_decimal_naturals():
    for bad in ("+1", " 1", "1_0", "-1", "", "1.0"):
        with pytest.raises(ValueError):
            PolyNat.from_json(["0", bad])
    with pytest.raises(TypeError):
        PolyNat.from_json([1])


def test_json_roundtrips_coefficients_past_the_int_str_cap():
    cap = sys.get_int_max_str_digits()
    p = PolyNat((7**20000, 0, 1))  # about 16.9k digits, past the default cap of 4300
    wire = p.to_json()
    assert len(wire[0]) > 4300 and wire[1:] == ["0", "1"]
    assert PolyNat.from_json(wire) == p
    assert sys.get_int_max_str_digits() == cap


# coefficient lists with zeros (trailing ones too) and big entries
coeff_lists = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=7)


def order_key(p):
    return (len(p.coeffs), p.coeffs[::-1])


@given(coeff_lists, coeff_lists)
def test_sum_and_product_match_the_validating_constructor(xs, ys):
    n = max(len(xs), len(ys))
    padded = [list(cs) + [0] * (n - len(cs)) for cs in (xs, ys)]
    conv = [0] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            conv[i + j] += a * b
    p, q = PolyNat(xs), PolyNat(ys)
    sum_, product = PolyNat([a + b for a, b in zip(*padded)]), PolyNat(conv)
    # the tuple functions return the constructor's canonical tuples, with no
    # trailing zero, and the PolyNat operators wrap them
    for got, wrapped, want in ((add(p.coeffs, q.coeffs), p + q, sum_),
                               (mul(p.coeffs, q.coeffs), p * q, product)):
        assert got == want.coeffs and type(got) is tuple and got[-1:] != (0,)
        assert wrapped == want and type(wrapped) is PolyNat


@pytest.mark.parametrize("other", [2, 2.5, "X", None])
def test_arithmetic_with_a_non_polynat_raises_type_error(other):
    p = PolyNat((1, 2))
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)
    assert p.__add__(other) is NotImplemented and p.__mul__(other) is NotImplemented


@given(coeff_lists, coeff_lists)
def test_order_agrees_with_the_degree_first_key(xs, ys):
    p, q = PolyNat(xs), PolyNat(ys)
    kp, kq = order_key(p), order_key(q)
    assert (p < q, p <= q, p > q, p >= q) == (kp < kq, kp <= kq, kp > kq, kp >= kq)


def test_canonical_strips_trailing_zeros_only():
    assert canonical(()) == () and canonical((0, 0)) == ()
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
    assert from_json(["1", "0"]) == (1,) and from_json([]) == ()


def test_from_json_roundtrips_past_the_int_str_cap():
    cs = (7**20000, 0, 1)  # about 16.9k digits, past the default cap of 4300
    assert from_json(to_json(cs)) == cs


def test_the_class_only_wraps_the_functions():
    rng = random.Random(24)
    for _ in range(300):
        cs = tuple(rng.choice((0, 0, 1, 2, rng.getrandbits(80))) for _ in range(rng.randrange(6)))
        wire = [str(c) for c in cs]
        assert str(PolyNat(cs)) == show(canonical(cs))
        assert PolyNat.from_json(wire).coeffs == from_json(wire) == canonical(cs)
        assert repr(PolyNat(cs)) == f"PolyNat(coeffs={canonical(cs)!r})"
