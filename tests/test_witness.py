"""Divisor products, certified inverses, recoding, and the CRT cross-check."""

import dataclasses
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from intpoly import IntPoly, X  # tests/intpoly.py
from profiled import profiled  # tests/profiled.py

from seqcode import codec, witness
from seqcode._decimal import decimal_str
from seqcode.codec import pair, seq_append, seq_build, unpair, verify_seq_step
from seqcode.witness import (
    DomainError,
    FactorWitness,
    InverseCertificate,
    NotCoprime,
    PreconditionViolated,
    RecodeWitness,
    crt,
    divisor_product,
    factor_inverse,
    lcm_upto,
    product_inverse,
    recode_extend,
    witness_from_json,
)


# ---------------------------------------------------------------- basics


def test_lcm_upto_fixed_values():
    assert lcm_upto(0) == 1
    assert lcm_upto(1) == 1
    assert lcm_upto(4) == 12
    assert lcm_upto(12) == 27720


def test_lcm_upto_divisibility():
    for k in range(1, 16):
        value = lcm_upto(k)
        for t in range(1, k + 1):
            assert value % t == 0


@pytest.mark.parametrize("fn, args, error, message", [
    (divisor_product, (-1, 3), ValueError, "k must be nonnegative, got -1"),  # returned 1
    (divisor_product, (2, True), TypeError, "v must be an int, got bool"),  # returned 6
    (lcm_upto, (-3,), ValueError, "k must be nonnegative, got -3"),  # returned 1
    (lcm_upto, (True,), TypeError, "k must be an int, got bool"),  # returned 1
    (crt, ([True], [3]), TypeError, "residue must be an int, got bool"),  # returned 1
    (crt, ([0], [3.0]), TypeError, "modulus must be an int, got float"),
    # both ways into _product_violation, whose v % (i - j) reads naturals only
    (product_inverse, (-1, 6, 4), ValueError, "k must be nonnegative, got -1"),
    (InverseCertificate, (2, -6, 4, 1, 1, 1), ValueError, "v must be nonnegative, got -6"),
    (product_inverse, (2, 6, True), TypeError, "i must be an int, got bool"),  # reported need i > k
    (product_inverse, (2, -6, 4), ValueError, "v must be nonnegative, got -6"),
    (factor_inverse, (1, True, 0), TypeError, "i must be an int, got bool"),  # reported need i >= 2
], ids=lambda v: getattr(v, "__name__", None))
def test_public_helpers_take_naturals_only(fn, args, error, message):
    with pytest.raises(error, match=message):
        fn(*args)


WIDE = 2**20000  # some 6,000 digits, past the default int-str cap of 4,300


@pytest.mark.parametrize("fn, args, error, message", [
    (recode_extend, (5, WIDE, WIDE - 1, 0, 1), PreconditionViolated,
     f"need vprime >= v, got vprime={decimal_str(WIDE - 1)}, v={decimal_str(WIDE)}"),
    (recode_extend, (0, 1, 1, 10**5000, 1), PreconditionViolated,
     f"need (k+1)*vprime >= x, got 2 < {decimal_str(10**5000)}"),
    (recode_extend, (0, WIDE, WIDE + 1, 0, 3), PreconditionViolated,
     f"vprime = {decimal_str(WIDE + 1)} must be divisible by 1..3"),
    (product_inverse, (1, WIDE + 1, 3), PreconditionViolated,
     f"i - 1 = 2 must divide v = {decimal_str(WIDE + 1)}"),
    (product_inverse, (10**5000, 0, 3), PreconditionViolated,
     f"need i > k, got i=3, k={decimal_str(10**5000)}"),
    (factor_inverse, (10**5000, 5, 1), DomainError,
     f"need i >= kprime + 1, got i=5 with kprime={decimal_str(10**5000)}"),
    (crt, ([10**5000], [3]), PreconditionViolated,
     f"residue {decimal_str(10**5000)} is not below modulus 3"),
    (crt, ([0, 0], [WIDE + 1, WIDE + 1]), NotCoprime,
     f"moduli share the factor {decimal_str(WIDE + 1)}"),
    (seq_build, ([-10**5000],), ValueError, f"x must be nonnegative, got {decimal_str(-10**5000)}"),
], ids=["recode-v", "recode-x", "recode-vprime", "product-v", "product-k", "factor-kprime",
        "crt-residue", "crt-coprime", "build-x"])
def test_messages_show_numbers_past_the_int_str_cap(fn, args, error, message):
    # str() of such a number raises ValueError itself, which hid the error's own type
    with pytest.raises(error) as info:
        fn(*args)
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------- divisor products


def test_divisor_product_fixed_values():
    assert divisor_product(0, 12345) == 1
    assert divisor_product(1, 2) == 3
    assert divisor_product(2, 3) == 28


def test_divisor_product_divisibility_sweep():
    for k in range(9):
        for v in range(21):
            u = divisor_product(k, v)
            for t in range(1, k + 1):
                assert u % (1 + t * v) == 0


# ---------------------------------------------------------------- factor inverses


def test_factor_inverse_fixed_values():
    w = factor_inverse(1, 3, 1)
    assert (w.pprime, w.qprime) == (5, 2)
    assert (1 + 1 * w.v) * 5 == 15 == 1 + (1 + 3 * w.v) * 2


def test_factor_inverse_degenerate_gap():
    # i = kprime + 1 zeroes the z terms for every z
    for z in (0, 1, 17, 10**9):
        w = factor_inverse(1, 2, z)
        assert (w.pprime, w.qprime) == (2, 1)
        assert (1 + w.v) * 2 == 1 + (1 + 2 * w.v) * 1


def test_factor_inverse_larger_case():
    w = factor_inverse(2, 5, 1)
    assert w.v == 3
    assert (1 + 2 * 3) * w.pprime == 1 + (1 + 5 * 3) * w.qprime


def test_factor_inverse_domain_errors():
    with pytest.raises(DomainError):
        factor_inverse(0, 5, 1)
    with pytest.raises(DomainError):
        factor_inverse(3, 3, 1)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=10**6),
)
def test_factor_inverse_identity_property(kprime, gap, z):
    i = kprime + gap
    w = factor_inverse(kprime, i, z)
    v = z * (i - kprime)
    assert (1 + kprime * v) * w.pprime == 1 + (1 + i * v) * w.qprime


def test_factor_inverse_identity_holds_in_the_polynomial_semiring():
    # z = X turns the closed form into polynomials; equal coefficients make the
    # identity hold for every z at once, in every commutative semiring
    for i in range(2, 17):
        for kprime in range(1, i):
            pprime, qprime = witness._factor_pair(kprime, i, X)
            assert min(pprime.coeffs + qprime.coeffs) >= 0  # both lie in N[X]
            v = X * (i - kprime)
            assert (1 + kprime * v) * pprime == 1 + (1 + i * v) * qprime


def test_factor_inverse_identity_holds_for_every_kprime_i_and_z():
    # k' = k + 1 and i = k' + 1 + d give every k' >= 1 and i >= k' + 1 as k and d
    # range over the naturals.  With k, d and z indeterminates the identity holds
    # in N[k, d, z], so in every commutative semiring: for nonstandard k', i and z
    # of any model of PA-, where such k and d exist, as for standard ones
    k, d, z = (IntPoly((0, 1), name) for name in "kdz")
    kprime = k + 1
    i = kprime + 1 + d
    pprime, qprime = witness._factor_pair(kprime, i, z)
    v = z * (i - kprime)
    assert all(poly.has_natural_coefficients() for poly in (pprime, qprime, v))
    assert (1 + kprime * v) * pprime == 1 + (1 + i * v) * qprime
    # the check can fail: one extra z term in p' breaks the identity
    assert (1 + kprime * v) * (pprime + z) != 1 + (1 + i * v) * qprime


def test_factor_witness_verify_rejects_tampering():
    w = factor_inverse(2, 5, 1)
    assert w.verify()
    assert not FactorWitness(w.kprime, w.i, w.z, w.pprime + 1, w.qprime).verify()


# ---------------------------------------------------------------- product inverses


def test_product_inverse_base_level():
    for v, i in [(0, 1), (7, 3), (10**6, 12)]:
        cert = product_inverse(0, v, i)
        assert (cert.u, cert.p, cert.q) == (1, 1, 0)


def test_product_inverse_fixed_values():
    cert = product_inverse(1, 2, 3)
    assert (cert.u, cert.p, cert.q) == (3, 5, 2)
    assert 3 * 5 == 1 + 7 * 2

    cert = product_inverse(2, 6, 4)
    assert cert.u == 7 * 13
    assert cert.u * cert.p % (1 + 4 * 6) == 1
    assert cert.verify()


def test_product_inverse_preconditions():
    with pytest.raises(PreconditionViolated):
        product_inverse(3, 6, 3)  # i must exceed k
    with pytest.raises(PreconditionViolated):
        product_inverse(2, 5, 4)  # 4 - 2 = 2 does not divide 5


def test_product_inverse_sweep_small():
    for k in range(4):
        for i in range(k + 1, k + 5):
            diffs = lcm_upto(k) if k == 0 else math.lcm(*[i - j for j in range(1, k + 1)])
            for mult in range(1, 6):
                v = diffs * mult
                cert = product_inverse(k, v, i)
                assert cert.verify()
                assert cert.u * cert.p % (1 + i * v) == 1


def test_product_inverse_certificates_are_pinned():
    # golden SHA-256 over the compact JSON of 225 certificates, recorded while
    # q was still recombined level by level: the exact quotient is the same q
    blob = b""
    for k in range(9):
        for i in range(k + 1, k + 6):
            base = math.lcm(*range(i - k, i))
            for m in (0, 1, 2, 7, 2**64 + 13):
                cert = product_inverse(k, base * m, i)
                blob += json.dumps(cert.to_json(), separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest()
    assert digest == "a537112d55ea19b1c8d949ccf5fec84d62f8b9cfb5122d6b76f39e57a11e43b0"


def test_certificate_verify_is_bounded_by_witness_size():
    huge = 10**11
    # v = 0: u = 1 and u*p == 1 + q, for any k below i, without a k-step loop
    assert InverseCertificate(huge, 0, huge + 1, 1, 1, 0).verify()
    assert InverseCertificate(huge, 0, huge + 1, 1, 8, 7).verify()
    assert not InverseCertificate(huge, 0, huge + 1, 2, 1, 0).verify()
    assert not InverseCertificate(huge, 0, huge, 1, 1, 0).verify()
    # v >= 1: u >= 2**k, so a short u cannot certify a long product
    assert not InverseCertificate(huge, 1, huge + 1, 1, 1, 0).verify()
    cert = product_inverse(3, 12, 5)
    assert not InverseCertificate(cert.k, cert.v, cert.i, 2**cert.k - 1, cert.p, cert.q).verify()


def test_certificate_bound_scales_with_the_bits_of_v():
    # each factor 1 + t*v is at least 2**max(1, bits(v) - 1), and u bounds their product
    cert = product_inverse(6, 60 * 2**40, 7)
    assert cert.verify()
    assert cert.u.bit_length() > cert.k * (cert.v.bit_length() - 1)
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randrange(1, 7)
        i = k + 1 + rng.randrange(3)
        v = lcm_upto(i) * rng.getrandbits(rng.randrange(1, 200))
        assert product_inverse(k, v, i).verify()
    # a short u against a wide v is rejected before the product is built
    v = lcm_upto(2000)
    assert not InverseCertificate(2000, v, 2001, 2**2001, 1, 0).verify()


def test_certificate_verify_rejects_tampering():
    cert = product_inverse(2, 6, 4)
    bad = InverseCertificate(cert.k, cert.v, cert.i, cert.u, cert.p, cert.q + 1)
    assert not bad.verify()
    bad_u = InverseCertificate(cert.k, cert.v, cert.i, cert.u + 1, cert.p, cert.q)
    assert not bad_u.verify()


# ---------------------------------------------------------------- recoding


def test_recode_extend_base_case():
    assert recode_extend(999, 11, 7000, 4321, 0) == 4321
    assert recode_extend(0, 0, 7, 7, 0) == 7


def test_recode_extend_at_a_vprime_of_exactly_k_bits():
    # vprime = 1 has k = 1 bit and is divisible by 1..1, so the bit-length
    # shortcut of the precondition must not reject it
    assert recode_extend(3, 1, 1, 2, 1) == 17
    assert RecodeWitness(3, 1, 1, 2, 1, 17).verify()


def test_recode_extend_fixed_case():
    uprime = recode_extend(68, 6, 60, 9, 2)
    assert uprime % 61 == 68 % 7 == 5
    assert uprime % 121 == 68 % 13 == 3
    assert uprime % 181 == 9


def test_recode_extend_rejects_a_wrong_closed_form(monkeypatch):
    # the contract is checked once at the boundary, so a broken inverse
    # surfaces as an error instead of a wrong code or certificate; p' is
    # written once, in _pprime, which the pair and the inverse product read
    closed_form = witness._pprime

    def wrong_pprime(*args):
        return closed_form(*args) + 1

    monkeypatch.setattr(witness, "_pprime", wrong_pprime)
    with pytest.raises(RuntimeError):
        recode_extend(68, 6, 60, 9, 2)
    with pytest.raises(RuntimeError):
        product_inverse(2, 6, 4)
    with pytest.raises(RuntimeError):
        factor_inverse(2, 5, 1)


def test_the_inverse_product_is_the_product_of_checked_factor_inverses():
    # _inverse multiplies p' alone; each factor's p' is that of a checked witness
    rng = random.Random(30)
    for k in range(31):
        for i in range(k + 1, k + 5):
            for r in (0, 1, 7, rng.getrandbits(70)):
                v = lcm_upto(i) * r
                want = math.prod(factor_inverse(t, i, v // (i - t)).pprime for t in range(1, k + 1))
                assert witness._inverse(k, v, i) == want, (k, v, i)


def test_factor_pair_qprime_is_the_exact_quotient():
    # q' is the one quotient the identity admits, given p'
    for kprime in range(1, 12):
        for i in range(kprime + 1, kprime + 12):
            for z in (0, 1, 2, 5, 2**64 + 1, 3**50):
                pprime, qprime = witness._factor_pair(kprime, i, z)
                assert pprime == witness._pprime(kprime, i, z)
                v = z * (i - kprime)
                assert divmod((1 + kprime * v) * pprime - 1, 1 + i * v) == (qprime, 0)


def test_recode_extend_preconditions():
    with pytest.raises(PreconditionViolated):
        recode_extend(68, 6, 7, 9, 2)  # 7 not divisible by 2
    with pytest.raises(PreconditionViolated):
        recode_extend(68, 6, 2, 1, 2)  # vprime below v
    with pytest.raises(PreconditionViolated):
        recode_extend(68, 6, 60, 200, 0)  # x above (k+1)*vprime


def test_recode_witness_json_roundtrip():
    uprime = recode_extend(68, 6, 60, 9, 2)
    wit = RecodeWitness(68, 6, 60, 9, 2, uprime)
    assert wit.verify()
    again = witness_from_json(wit.to_json())
    assert again == wit and again.verify()
    assert not RecodeWitness(68, 6, 60, 9, 2, uprime + 1).verify()


def test_recode_witness_fields_must_be_ints():
    # a bool u used to serialize as "True", which witness_from_json rejects
    with pytest.raises(TypeError):
        RecodeWitness(True, 0, 60, 0, 2, 0).to_json()


def test_witness_fields_must_be_naturals():
    # every field of every witness type is a natural, checked when the witness is made
    with pytest.raises(TypeError):
        RecodeWitness(68.0, 6, 60, 9, 2, recode_extend(68, 6, 60, 9, 2))
    with pytest.raises(TypeError):
        InverseCertificate(2, 6.0, 4, 1, 1, 1)
    good = (factor_inverse(2, 5, 1), product_inverse(2, 6, 4),
            RecodeWitness(68, 6, 60, 9, 2, recode_extend(68, 6, 60, 9, 2)))
    for wit in good:
        values = dataclasses.astuple(wit)
        for pos, n in enumerate(values):
            for bad, error in ((float(n), TypeError), (n == 1, TypeError), (-1 - n, ValueError)):
                with pytest.raises(error):
                    type(wit)(*values[:pos], bad, *values[pos + 1:])
        assert type(wit)(*values) == wit and wit.verify()


@pytest.mark.parametrize("args, error, message", [
    ((-5, 0, 2, 1, 0), ValueError, "u must be nonnegative, got -5"),
    ((5, -2, 2, 1, 0), ValueError, "v must be nonnegative, got -2"),
    ((5, 0, 2, 1, True), TypeError, "k must be an int, got bool"),
])
def test_recode_extend_takes_naturals_only(args, error, message):
    # each used to return a number (1, 1 and 6, reading k = True as 1), while
    # a RecodeWitness of the same inputs refused to be built
    with pytest.raises(error, match=message):
        recode_extend(*args)
    with pytest.raises(error):
        RecodeWitness(*args, 0)


def test_recode_witness_verify_checks_the_preconditions():
    huge = 10**11
    # vprime = 0 makes every modulus 1 and forces v = x = 0
    assert RecodeWitness(5, 0, 0, 0, huge, 7).verify()
    assert not RecodeWitness(5, 1, 0, 0, huge, 7).verify()
    assert not RecodeWitness(5, 0, 0, 1, huge, 7).verify()
    # vprime >= 1 is a multiple of lcm(1..k) >= 2**(k-1)
    assert not RecodeWitness(0, 0, 1, 0, huge, 0).verify()
    assert not RecodeWitness(0, 0, 2**40, 0, 41, 0).verify()
    # residues alone would accept these: 60 < 61 breaks vprime >= v, and
    # 59 is not divisible by 2
    assert RecodeWitness(0, 0, 60, 0, 2, 0).verify()
    assert not RecodeWitness(0, 61, 60, 0, 2, 0).verify()
    assert not RecodeWitness(0, 0, 59, 0, 2, 0).verify()


def _random_recode_instance(rng):
    k = rng.randrange(9)
    u = rng.randrange(2**64)
    v = rng.randrange(10**4)
    base = lcm_upto(k)
    vprime = base * (rng.randrange(1, 8) + -(-max(v, 1) // base))
    x = rng.randrange((k + 1) * vprime + 1)
    return u, v, vprime, x, k


def test_recode_matches_crt_oracle_seeded():
    rng = random.Random(271828)
    for _ in range(40):
        u, v, vprime, x, k = _random_recode_instance(rng)
        uprime = recode_extend(u, v, vprime, x, k)
        moduli = [1 + t * vprime for t in range(1, k + 2)]
        targets = [u % (1 + t * v) for t in range(1, k + 1)] + [x]
        for a in range(len(moduli)):
            for b in range(a + 1, len(moduli)):
                assert math.gcd(moduli[a], moduli[b]) == 1
        reconstructed = crt(targets, moduli)
        assert [uprime % m for m in moduli] == [reconstructed % m for m in moduli] == targets


def test_every_checker_rejects_each_broken_position(monkeypatch):
    # shifting uprime by the product of every modulus but 1 + t*vprime breaks
    # position t alone; the witness, the step check and recode_extend's own
    # check must each reject it, and accept the unshifted code
    rng = random.Random(4242)
    for _ in range(12):
        u, v, vprime, x, k = _random_recode_instance(rng)
        uprime = recode_extend(u, v, vprime, x, k)
        moduli = [1 + t * vprime for t in range(1, k + 2)]
        for t in [None] + list(range(1, k + 2)):
            shifted = uprime
            if t is not None:
                shifted += math.prod(moduli[:t - 1] + moduli[t:])
            intact = t is None
            assert RecodeWitness(u, v, vprime, x, k, shifted).verify() is intact
            assert verify_seq_step(pair(u, v), k, x, pair(shifted, vprime)) is intact
            monkeypatch.setattr(witness, "_recode", lambda residues, vp, acc=shifted: acc)
            if intact:
                assert recode_extend(u, v, vprime, x, k) == uprime
            else:
                with pytest.raises(RuntimeError):
                    recode_extend(u, v, vprime, x, k)
            monkeypatch.undo()


def test_recode_level_loop_runs_in_the_nonstandard_model_zx_plus():
    # _recode uses only +, * and // by a standard integer, so it runs on Z[X]+,
    # where X rem 2 does not exist.  With vprime = L*X, L = lcm(1..k), the
    # modulus 1 + t*L*X is primitive, so by Gauss's lemma it divides
    # uprime - x_t in Z[X] iff both agree at -1/(t*L); the quotient then has
    # the sign of uprime - x_t, and it must lie in Z[X]+ for x_t to be the
    # remainder there.  Half the targets are nonstandard: a + b*X, 0 < b < t*L.
    rng = random.Random(3141)
    for k in range(9):
        L = lcm_upto(k)
        targets = []
        for t in range(1, k + 2):
            if t * L > 1 and rng.random() < 0.5:
                targets.append(rng.randrange(-10**6, 10**6) + rng.randrange(1, t * L) * X)
            else:
                targets.append(IntPoly.lift(rng.getrandbits(64)))
        uprime = witness._recode(targets, L * X)
        for t, x_t in enumerate(targets, 1):
            difference = uprime - x_t
            assert difference(Fraction(-1, t * L)) == 0
            assert difference.in_zx_plus()


RECODE_PROVED_UP_TO = 13  # every length up to here recodes in about 0.7 s in all


def _recode_holds_in_every_model(k):
    # the recode of indeterminate targets r_1..r_{k+1} at v' = lcm(1..k)*z is
    # A = sum of r_t*C_t(z); with m_s = 1 + s*v', it carries r_s to position s
    # for every z and every target below m_s, in every model of PA-, once each
    # C_t - [s = t] is m_s*Q with Q in N[z]: then A = r_s + m_s*(sum of r_t*Q)
    z = IntPoly((0, 1), "z")
    vprime = lcm_upto(k) * z
    uprime = witness._recode([IntPoly((0, 1), f"r{t}") for t in range(1, k + 2)], vprime)
    coeff = {t: {} for t in range(1, k + 2)}
    for monomial, c in uprime.terms.items():
        (target, degree), *zs = sorted(monomial, key=lambda power: power[0] == "z")
        assert target != "z" and degree == 1 and all(name == "z" for name, _ in zs), monomial
        coeff[int(target[1:])][tuple(zs)] = c
    for s in range(1, k + 2):
        for t, terms in coeff.items():
            q = (IntPoly.of(terms) - int(s == t)).quotient(1 + s * vprime)
            if q is None or not q.has_natural_coefficients():
                return False
    return True


def test_the_recode_holds_in_every_model_at_each_standard_length():
    # a proof per length, k + 1 <= RECODE_PROVED_UP_TO + 1 targets; a
    # nonstandard length rests on the paper's own argument
    for k in range(RECODE_PROVED_UP_TO + 1):
        assert _recode_holds_in_every_model(k), k


def test_the_recode_proof_rejects_a_wrong_inverse(monkeypatch):
    real = witness._pprime
    monkeypatch.setattr(witness, "_pprime", lambda kprime, i, z: real(kprime, i, z) + z)
    assert _recode_holds_in_every_model(0)  # one target: no inverse is read
    assert not any(_recode_holds_in_every_model(k) for k in range(1, 4))


# ---------------------------------------------------------------- the residue reader


def _direct_reads(u, v, k):
    return [u % (1 + t * v) for t in range(1, k + 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4000).flatmap(lambda bits: st.integers(0, 2**bits)),
    st.integers(0, 2**80),
    st.integers(0, 40),
    st.sampled_from(["as drawn", "below the product", "above the product"]),
)
@example(u=0, v=0, k=0, where="as drawn")
@example(u=5, v=0, k=40, where="as drawn")  # every modulus is 1
@example(u=2**4000, v=1, k=40, where="as drawn")  # 41! is far below u
@example(u=0, v=6, k=3, where="above the product")  # u is the product 7*13*19
@example(u=2639, v=7, k=3, where="as drawn")  # one below the product 8*15*22
@example(u=2641, v=7, k=3, where="as drawn")  # one above it
def test_residues_equal_the_direct_reads(u, v, k, where):
    product = divisor_product(k, v)
    if where == "below the product":
        u %= product
    elif where == "above the product":
        u += product
    assert witness._residues(u, v, k) == _direct_reads(u, v, k)


def test_each_step_check_reads_two_residue_families(monkeypatch):
    h = seq_build(range(1, 9))
    nxt = seq_append(h, 99)
    (u, v), (uprime, vprime) = unpair(h.w), unpair(nxt.w)
    families, real_residues = [], witness._residues

    def counting(u, v, k):
        families.append(k)
        return real_residues(u, v, k)

    monkeypatch.setattr(witness, "_residues", counting)
    monkeypatch.setattr(codec, "_residues", counting)  # codec imports it by name
    verdict, calls = profiled(verify_seq_step, h.w, h.len, 99, nxt.w)
    assert verdict
    assert families == [8, 9] and calls[math.isqrt] == 2  # the old entries, then the new code
    families.clear()
    assert RecodeWitness(u, v, vprime, 99, 8, uprime).verify()
    assert families == [8, 9]


def test_a_wide_recode_witness_is_rejected_quickly():
    # the divisor product of 2000 factors 1 + t*V would be some 6 million bits;
    # the reader drops it at the first factor, which already exceeds u = 3
    V = lcm_upto(2000)
    start = time.perf_counter()
    assert not RecodeWitness(u=3, v=V, vprime=V, x=0, k=2000, uprime=3).verify()
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- one precondition rule per witness


def _builder_and_verifier_agree(build, error, reason, expected, handmade, built):
    # the builder raises exactly when the rule names a reason, and with that
    # reason; the verifier then rejects a hand-made witness on the same inputs,
    # and otherwise accepts what the builder made
    assert bool(reason) == expected
    if reason:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == reason
        assert not handmade().verify()
    else:
        assert built(build()).verify()


def test_factor_builder_and_verifier_share_one_precondition():
    for kprime in (0, 1, 2):
        for i in (kprime, kprime + 1, kprime + 2):
            for z in (0, 3):
                # z = 0 keeps the closed form natural and the identity exact even
                # where the precondition fails, so only the precondition can reject
                pprime, qprime = witness._factor_pair(kprime, i, 0)
                handmade = FactorWitness(kprime, i, 0, pprime, qprime)
                assert (1 + kprime * handmade.v) * pprime == 1 + (1 + i * handmade.v) * qprime
                _builder_and_verifier_agree(
                    lambda: factor_inverse(kprime, i, z), DomainError,
                    witness._factor_violation(kprime, i), kprime < 1 or i <= kprime,
                    lambda: handmade, lambda w: w)


def _inverse_or_one(u, m):
    # the true inverse where it exists, so the identity holds and only the
    # precondition can reject the hand-made certificate
    return pow(u, -1, m) if m > 1 and math.gcd(u, m) == 1 else 1


def test_product_builder_and_verifier_share_one_precondition():
    cases = []
    for k in range(5):
        for i in (k, k + 1, k + 2):
            diffs = [i - j for j in range(1, k + 1) if i - j > 0]
            cases += [(k, 0, i), (k, 2 * math.lcm(*diffs), i)]
            for d in diffs:  # one difference that does not divide v
                v = math.lcm(*(e for e in diffs if e != d))
                if v % d:
                    cases.append((k, v, i))
                    break
    crossed = set()
    for k, v, i in cases:
        u, m = divisor_product(k, v), 1 + i * v
        p = _inverse_or_one(u, m)
        indivisible = any(v % (i - j) for j in range(1, k + 1) if i > j)
        crossed.add((i <= k, indivisible))
        _builder_and_verifier_agree(
            lambda: product_inverse(k, v, i), PreconditionViolated,
            witness._product_violation(k, v, i), i <= k or indivisible,
            lambda: InverseCertificate(k, v, i, u, p, (u * p - 1) // m), lambda c: c)
    assert crossed == {(False, False), (False, True), (True, False), (True, True)}


def test_recode_builder_and_verifier_share_one_precondition():
    cases = [
        (68, 6, 7, 9, 2), (68, 6, 2, 1, 2), (68, 6, 60, 200, 0), (68, 6, 60, 9, 2),
        (0, 61, 60, 0, 2), (0, 0, 59, 0, 2), (0, 0, 60, 0, 2), (0, 0, 2**40, 0, 41),
        (5, 1, 0, 0, 3), (5, 0, 0, 1, 3), (5, 0, 0, 0, 3), (999, 11, 7000, 4321, 0),
    ]
    for u, v, vprime, x, k in cases:
        moduli = [1 + t * vprime for t in range(1, k + 2)]
        targets = [u % (1 + t * v) for t in range(1, k + 1)] + [x]
        try:  # a code that meets the contract, where one exists
            uprime = crt(targets, moduli)
        except ValueError:
            uprime = 0
        expected = vprime < v or (k + 1) * vprime < x or (
            vprime > 0 and any(vprime % t for t in range(1, k + 1)))
        _builder_and_verifier_agree(
            lambda: recode_extend(u, v, vprime, x, k), PreconditionViolated,
            witness._recode_violation(v, vprime, x, k), expected,
            lambda: RecodeWitness(u, v, vprime, x, k, uprime),
            lambda w: RecodeWitness(u, v, vprime, x, k, w))


# ---------------------------------------------------------------- crt


def test_crt_fixed_values():
    assert crt([5, 3], [7, 13]) == 68
    assert crt([0], [997]) == 0
    assert crt([], []) == 0


def test_crt_not_coprime():
    with pytest.raises(NotCoprime, match="factor 2"):
        crt([1, 2], [2, 4])
    with pytest.raises(NotCoprime, match="factor 3"):
        crt([0, 1, 2], [5, 3, 9])


def test_crt_unit_modulus():
    assert crt([0, 0], [1, 1]) == 0
    assert crt([0, 4], [1, 7]) == 4


def test_crt_minimality_brute_force():
    for residues, moduli in [([2, 3], [5, 7]), ([1, 0, 4], [3, 4, 5])]:
        got = crt(residues, moduli)
        want = next(
            u for u in range(math.prod(moduli))
            if all(u % m == r for r, m in zip(residues, moduli))
        )
        assert got == want


def test_crt_input_validation():
    with pytest.raises(PreconditionViolated):
        crt([7], [5])  # residue not below modulus
    with pytest.raises(PreconditionViolated):
        crt([0], [0])
    with pytest.raises(ValueError):
        crt([1, 2], [5])


# ---------------------------------------------------------------- coprimality fact


def test_rebased_moduli_pairwise_coprime():
    for k in range(1, 13):
        base = lcm_upto(k)
        for v in range(base, 10**5 + 1, base * 97):
            moduli = [1 + t * v for t in range(1, k + 1)]
            for a in range(len(moduli)):
                for b in range(a + 1, len(moduli)):
                    assert math.gcd(moduli[a], moduli[b]) == 1


# ---------------------------------------------------------------- serialization


def test_certificate_json_roundtrip():
    cert = product_inverse(3, 12, 5)
    blob = cert.to_json()
    assert blob["type"] == "product-inverse"
    assert all(isinstance(v, str) for v in blob.values())
    assert witness_from_json(blob) == cert


def test_factor_witness_json_roundtrip():
    w = factor_inverse(2, 7, 3)
    assert witness_from_json(w.to_json()) == w


def test_witness_json_bytes_are_pinned():
    # golden wire form: the type tag, then every field in declaration order
    witnesses = (
        factor_inverse(2, 7, 3),
        product_inverse(3, 12, 5),
        RecodeWitness(68, 6, 60, 9, 2, recode_extend(68, 6, 60, 9, 2)),
    )
    assert [json.dumps(w.to_json()) for w in witnesses] == [
        '{"type": "factor-inverse", "kprime": "2", "i": "7", "z": "3", "pprime": "171", "qprime": "50"}',
        '{"type": "product-inverse", "k": "3", "v": "12", "i": "5", "u": "12025", "p": "366694", '
        '"q": "72286809"}',
        '{"type": "recode", "u": "68", "v": "6", "vprime": "60", "x": "9", "k": "2", '
        '"uprime": "26977627141655"}',
    ]


def test_witness_from_json_unknown_type():
    with pytest.raises(ValueError):
        witness_from_json({"type": "mystery"})
