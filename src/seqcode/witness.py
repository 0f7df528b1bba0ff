"""Constructive modular witnesses backing the sequence codec.

Everything here is built from +, * and divisibility alone, and everything
returns checkable objects: products divisible by a whole family of moduli,
explicit modular inverses together with their quotients, and recoded
residue systems.  Each witness is built once, from the closed forms, and
checked once at the boundary by direct evaluation instead of trusting its
own construction; verification costs are bounded by the witness size.
All three witness types share one JSON wire form.  ``crt`` is the
deliberately independent cross-check: it reconstructs residue systems
with the stdlib modular inverse, which the constructive route never
touches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Sequence

from seqcode._decimal import decimal_str, parse_decimal


class ZeroModulus(ZeroDivisionError):
    """Remainder taken against modulus 0; no z < 0 can exist."""


class DomainError(ValueError):
    """Arguments would force a difference below zero."""


class PreconditionViolated(ValueError):
    """A stated divisibility or bound requirement does not hold."""


class NotCoprime(ValueError):
    """CRT moduli share a nontrivial factor."""


def rem(x: int, m: int) -> int:
    """The unique z < m with x = z + q*m for some q.

    Raises ZeroModulus for m = 0, where no such z exists.
    """
    if m == 0:
        raise ZeroModulus("x rem 0 is undefined")
    return x % m


def divides(d: int, x: int) -> bool:
    """True iff x = q*d for some q; divides(0, x) holds only for x = 0."""
    if d == 0:
        return x == 0
    return x % d == 0


def lcm_upto(k: int) -> int:
    """Least common multiple of 1..k (1 when k = 0)."""
    return math.lcm(*range(2, k + 1)) if k >= 2 else 1


def divisor_product(k: int, v: int) -> int:
    """Product of 1 + t*v over t = 1..k; the empty product is 1.

    The result is divisible by every factor 1 + t*v with t <= k, which is
    what lets ``recode_extend`` use it as a term that vanishes modulo all
    smaller-position moduli at once.
    """
    u = 1
    for t in range(1, k + 1):
        u *= 1 + t * v
    return u


class _Witness:
    """The one wire form: the type tag, then every field in declaration order."""

    tag: ClassVar[str]

    def to_json(self) -> dict[str, str]:
        values = {f.name: decimal_str(getattr(self, f.name)) for f in fields(self)}
        return {"type": self.tag, **values}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(parse_decimal(obj[f.name]) for f in fields(cls)))


@dataclass(frozen=True)
class FactorWitness(_Witness):
    """Closed-form inverse of 1 + kprime*v modulo 1 + i*v, for v = z*(i - kprime).

    The defining identity is exact over the naturals:

        (1 + kprime*v) * pprime == 1 + (1 + i*v) * qprime
    """

    tag = "factor-inverse"
    kprime: int
    i: int
    z: int
    pprime: int
    qprime: int

    @property
    def v(self) -> int:
        return self.z * (self.i - self.kprime)

    def verify(self) -> bool:
        """Re-evaluate the defining identity from scratch."""
        if self.kprime < 1 or self.i < self.kprime + 1:
            return False
        v = self.v
        return (1 + self.kprime * v) * self.pprime == 1 + (1 + self.i * v) * self.qprime


def _factor_pair(kprime: int, i: int, z: int) -> tuple[int, int]:
    # the closed form (pprime, qprime) of factor_inverse, unchecked
    gap = i - (kprime + 1)
    return 1 + kprime + i * kprime * gap * z, kprime + kprime * kprime * gap * z


def factor_inverse(kprime: int, i: int, z: int) -> FactorWitness:
    """Invert the single factor 1 + kprime*v modulo 1 + i*v, with v = z*(i - kprime).

    The witness is polynomial in the inputs:

        pprime = 1 + kprime + i*kprime*(i - (kprime+1))*z
        qprime = kprime + kprime**2 * (i - (kprime+1))*z

    When i = kprime + 1 the z terms vanish and the pair collapses to
    (1 + kprime, kprime), which still satisfies the identity.
    """
    if kprime < 1:
        raise DomainError(f"kprime must be at least 1, got {kprime}")
    if i < kprime + 1:
        raise DomainError(f"need i >= kprime + 1, got i={i} with kprime={kprime}")
    witness = FactorWitness(kprime, i, z, *_factor_pair(kprime, i, z))
    if not witness.verify():  # witnesses are never trusted from construction
        raise RuntimeError(f"factor witness failed its own identity: {witness}")
    return witness


@dataclass(frozen=True)
class InverseCertificate(_Witness):
    """Witness that divisor_product(k, v) is invertible modulo 1 + i*v.

    Carries the inverse p and the quotient q with u*p == 1 + (1 + i*v)*q,
    together with the applicability conditions: i > k and (i - j) | v for
    every 0 < j <= k.
    """

    tag = "product-inverse"
    k: int
    v: int
    i: int
    u: int
    p: int
    q: int

    def verify(self) -> bool:
        """Re-check every stated invariant by direct evaluation.

        The cost is bounded by the witness size: v = 0 has a closed form,
        and for v >= 1 every factor 1 + t*v is at least 2**m with
        m = max(1, bits(v) - 1), so u >= 2**(k*m) is checked before the
        divisor product is built.
        """
        if self.i <= self.k:
            return False
        if self.v == 0:
            return self.u == 1 and self.p == 1 + self.q
        if self.u.bit_length() <= self.k * max(1, self.v.bit_length() - 1):
            return False
        if any(not divides(self.i - j, self.v) for j in range(1, self.k + 1)):
            return False
        if self.u != divisor_product(self.k, self.v):
            return False
        return self.u * self.p == 1 + (1 + self.i * self.v) * self.q


def product_inverse(k: int, v: int, i: int) -> InverseCertificate:
    """Build the inverse certificate for divisor_product(k, v) modulo 1 + i*v.

    Built once, checked once at the boundary.  The inverse p is the product
    of the closed-form inverses of the factors 1 + t*v (whose z is
    v // (i - t), exact by precondition), and q is the exact quotient
    (u*p - 1) // (1 + i*v), the only one the identity admits.
    """
    if i <= k:
        raise PreconditionViolated(f"need i > k, got i={i}, k={k}")
    for j in range(1, k + 1):
        if not divides(i - j, v):
            raise PreconditionViolated(f"i - {j} = {i - j} must divide v = {v}")
    u, p = divisor_product(k, v), _inverse(k, v, i)
    cert = InverseCertificate(k=k, v=v, i=i, u=u, p=p, q=(u * p - 1) // (1 + i * v))
    if not cert.verify():  # certificates are never trusted from construction
        raise RuntimeError(f"inverse certificate failed its own identity: {cert}")
    return cert


def _inverse(k: int, v: int, i: int) -> int:
    # the inverse of divisor_product(k, v) modulo 1 + i*v, unchecked: the
    # product of the factor inverses, each z = v // (i - t) exact by precondition
    return math.prod(_factor_pair(t, i, v // (i - t))[0] for t in range(1, k + 1))


def _recode_violation(v: int, vprime: int, x: int, k: int) -> str | None:
    # why recode_extend(_, v, vprime, x, k) is undefined, or None; a
    # vprime >= 1 divisible by 1..k is at least lcm(1..k) >= 2**(k-1)
    if vprime < v:
        return f"need vprime >= v, got vprime={vprime}, v={v}"
    if (k + 1) * vprime < x:
        return f"need (k+1)*vprime >= x, got {(k + 1) * vprime} < {x}"
    if vprime and (vprime.bit_length() < k or vprime % lcm_upto(k)):
        return f"vprime = {vprime} must be divisible by 1..{k}"
    return None


def recode_extend(u: int, v: int, vprime: int, x: int, k: int) -> int:
    """Carry k remainders of u onto the moduli 1 + t*vprime and plant x next.

    Requires vprime divisible by 1..k, vprime >= v, and (k+1)*vprime >= x.
    Returns u' with

        u' rem (1 + t*vprime) == u rem (1 + t*v)   for 1 <= t <= k,
        u' rem (1 + (k+1)*vprime) == x.

    Built once, checked once at the boundary.  The level-t correction term
    carries divisor_product(t, vprime), grown by one factor per level, so
    it is invisible to every position below t; times that product's
    closed-form inverse modulo 1 + (t+1)*vprime it is exactly 1 there,
    which plants the level-t target.  Every result, k = 0 included, is
    checked against the contract once, before it is returned.
    """
    violation = _recode_violation(v, vprime, x, k)
    if violation:
        raise PreconditionViolated(violation)
    # each old residue is read once; the result is checked against the same list
    residues = [rem(u, 1 + t * v) for t in range(1, k + 1)] + [x]
    acc = _recode(residues, vprime)
    if not _carries(acc, vprime, residues):
        witness = RecodeWitness(u, v, vprime, x, k, acc)
        raise RuntimeError(f"recode failed its own contract: {witness}")
    return acc


def _recode(residues: list[int], vprime: int) -> int:
    # the level loop of recode_extend: acc rem (1 + t*vprime) == residues[t-1]
    acc, prefix = residues[0], 1
    for t in range(1, len(residues)):
        prefix *= 1 + t * vprime
        acc = acc + (residues[t] + acc * (t + 1) * vprime) * prefix * _inverse(t, vprime, t + 1)
    return acc


def _carries(uprime: int, vprime: int, residues: Iterable[int]) -> bool:
    # the append contract: uprime reads the t-th residue at 1 + t*vprime for
    # every t, counted from 1; stops at the first mismatch
    return all(uprime % (1 + t * vprime) == r for t, r in enumerate(residues, 1))


@dataclass(frozen=True)
class RecodeWitness(_Witness):
    """Audit record for one recode_extend call: the inputs plus claimed output."""

    tag = "recode"
    u: int
    v: int
    vprime: int
    x: int
    k: int
    uprime: int

    def verify(self) -> bool:
        """The recode_extend preconditions, then the residue contract.

        The cost is bounded by the witness size: vprime = 0 forces
        v = x = 0 and makes every modulus 1, and vprime >= 1 bounds k by
        vprime's bit length.
        """
        if _recode_violation(self.v, self.vprime, self.x, self.k):
            return False
        if self.vprime == 0:
            return True
        old = (rem(self.u, 1 + t * self.v) for t in range(1, self.k + 1))
        return _carries(self.uprime, self.vprime, itertools.chain(old, [self.x]))


_WITNESS_TYPES = {cls.tag: cls for cls in (FactorWitness, InverseCertificate, RecodeWitness)}


def witness_from_json(obj: dict):
    """Deserialize any witness by its "type" tag."""
    try:
        cls = _WITNESS_TYPES[obj["type"]]
    except KeyError:
        raise ValueError(f"unknown witness type: {obj.get('type')!r}") from None
    return cls.from_json(obj)


def crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Least u with u % moduli[t] == residues[t] for every t.

    Independent reconstruction used to cross-check ``recode_extend``.  The
    moduli must be pairwise coprime (else NotCoprime) and each residue must
    lie below its modulus.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    for r, m in zip(residues, moduli):
        if m < 1:
            raise PreconditionViolated(f"modulus must be positive, got {m}")
        if not 0 <= r < m:
            raise PreconditionViolated(f"residue {r} is not below modulus {m}")
    u, prod = 0, 1
    for r, m in zip(residues, moduli):
        try:
            s = pow(prod % m, -1, m)
        except ValueError:
            raise NotCoprime(f"moduli share the factor {math.gcd(prod, m)}") from None
        u += prod * (((r - u) * s) % m)
        prod *= m
    return u
