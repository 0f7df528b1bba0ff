"""Divisor products, certified inverses, recoding, and the CRT cross-check."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcode import witness
from seqcode.codec import pair, verify_seq_step
from seqcode.witness import (
    DomainError,
    FactorWitness,
    InverseCertificate,
    NotCoprime,
    PreconditionViolated,
    RecodeWitness,
    ZeroModulus,
    crt,
    divides,
    divisor_product,
    factor_inverse,
    lcm_upto,
    product_inverse,
    recode_extend,
    rem,
    witness_from_json,
)


# ---------------------------------------------------------------- basics


def test_rem_fixed_values():
    assert rem(68, 7) == 5
    assert rem(68, 13) == 3
    assert rem(123456, 1) == 0


def test_rem_zero_modulus():
    with pytest.raises(ZeroModulus):
        rem(5, 0)


def test_divides_fixed_values():
    assert divides(3, 27720)
    assert divides(1, 98765)
    assert not divides(0, 5)
    assert divides(0, 0)


def test_lcm_upto_fixed_values():
    assert lcm_upto(0) == 1
    assert lcm_upto(1) == 1
    assert lcm_upto(4) == 12
    assert lcm_upto(12) == 27720


def test_lcm_upto_divisibility():
    for k in range(1, 16):
        value = lcm_upto(k)
        for t in range(1, k + 1):
            assert divides(t, value)


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
                assert divides(1 + t * v, u)


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
    assert rem(cert.u * cert.p, 1 + 4 * 6) == 1
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
                assert rem(cert.u * cert.p, 1 + i * v) == 1


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


def test_recode_extend_fixed_case():
    uprime = recode_extend(68, 6, 60, 9, 2)
    assert rem(uprime, 61) == rem(68, 7) == 5
    assert rem(uprime, 121) == rem(68, 13) == 3
    assert rem(uprime, 181) == 9


def test_recode_extend_rejects_a_wrong_closed_form(monkeypatch):
    # the contract is checked once at the boundary, so a broken inverse
    # surfaces as an error instead of a wrong code or certificate
    closed_form = witness._factor_pair

    def wrong_pprime(*args):
        pprime, qprime = closed_form(*args)
        return pprime + 1, qprime

    monkeypatch.setattr(witness, "_factor_pair", wrong_pprime)
    with pytest.raises(RuntimeError):
        recode_extend(68, 6, 60, 9, 2)
    with pytest.raises(RuntimeError):
        product_inverse(2, 6, 4)


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
        targets = [rem(u, 1 + t * v) for t in range(1, k + 1)] + [x]
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
