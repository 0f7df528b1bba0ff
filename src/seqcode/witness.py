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

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from seqcode._decimal import _divmod, _natural, _Naturals, decimal_str


class DomainError(ValueError):
    """Arguments would force a difference below zero."""


class PreconditionViolated(ValueError):
    """A stated divisibility or bound requirement does not hold."""


class NotCoprime(ValueError):
    """CRT moduli share a nontrivial factor."""


def lcm_upto(k: int) -> int:
    """Least common multiple of 1..k (1 when k = 0)."""
    return math.lcm(*range(1, _natural(k, "k") + 1))


def divisor_product(k: int, v: int) -> int:
    """Product of 1 + t*v over t = 1..k; the empty product is 1.

    The result is divisible by every factor 1 + t*v with t <= k, which is
    what lets ``recode_extend`` use it as a term that vanishes modulo all
    smaller-position moduli at once.
    """
    _natural(k, "k")
    _natural(v, "v")
    return math.prod(1 + t * v for t in range(1, k + 1))


class _Witness(_Naturals):
    """The record's wire form with the witness's type tag first."""

    tag: ClassVar[str]

    def to_json(self) -> dict[str, str]:
        return {"type": self.tag, **super().to_json()}


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
        """``factor_inverse``'s precondition, then the defining identity, from scratch."""
        if _factor_violation(self.kprime, self.i):
            return False
        v = self.v
        return (1 + self.kprime * v) * self.pprime == 1 + (1 + self.i * v) * self.qprime


def _factor_violation(kprime: int, i: int) -> str | None:
    """Why ``factor_inverse(kprime, i, _)`` is undefined, or None: its one precondition rule."""
    if kprime < 1:
        return f"kprime must be at least 1, got {kprime}"
    if i < kprime + 1:
        return f"need i >= kprime + 1, got i={decimal_str(i)} with kprime={decimal_str(kprime)}"
    return None


def _checked(witness):
    # witnesses are never trusted from construction
    if not witness.verify():
        raise RuntimeError(f"{witness.tag} witness failed its own identity: {witness}")
    return witness


def _pprime(kprime: int, i: int, z: int) -> int:
    # p' of factor_inverse, unchecked: written once, read by the pair and by _inverse
    return 1 + kprime + i * kprime * (i - kprime - 1) * z


def _factor_pair(kprime: int, i: int, z: int) -> tuple[int, int]:
    # the closed form (pprime, qprime) of factor_inverse, unchecked
    return _pprime(kprime, i, z), kprime + kprime * kprime * (i - kprime - 1) * z


def factor_inverse(kprime: int, i: int, z: int) -> FactorWitness:
    """Invert the single factor 1 + kprime*v modulo 1 + i*v, with v = z*(i - kprime).

    The witness is polynomial in the inputs:

        pprime = 1 + kprime + i*kprime*(i - (kprime+1))*z
        qprime = kprime + kprime**2 * (i - (kprime+1))*z

    When i = kprime + 1 the z terms vanish and the pair collapses to
    (1 + kprime, kprime), which still satisfies the identity.
    """
    for n, what in ((kprime, "kprime"), (i, "i"), (z, "z")):
        _natural(n, what)
    violation = _factor_violation(kprime, i)
    if violation:
        raise DomainError(violation)
    return _checked(FactorWitness(kprime, i, z, *_factor_pair(kprime, i, z)))


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
        """``product_inverse``'s preconditions, then every stated invariant, by direct evaluation.

        The cost is bounded by the witness size: v = 0 has a closed form, and
        for v >= 1 every factor 1 + t*v is at least 2**max(1, bits(v) - 1), so
        u's length is checked before the k divisibility checks and the product.
        """
        if self.v and self.u.bit_length() <= self.k * max(1, self.v.bit_length() - 1):
            return False
        if _product_violation(self.k, self.v, self.i):
            return False
        if self.v == 0:
            return self.u == 1 and self.p == 1 + self.q
        if self.u != divisor_product(self.k, self.v):
            return False
        return self.u * self.p == 1 + (1 + self.i * self.v) * self.q


def _product_violation(k: int, v: int, i: int) -> str | None:
    """Why ``product_inverse(k, v, i)`` is undefined, or None: its one precondition rule.

    Every i - j divides v = 0, so for v = 0 only i > k is read, whatever k is.
    """
    if i <= k:
        return f"need i > k, got i={decimal_str(i)}, k={decimal_str(k)}"
    for j in range(1, k + 1) if v else ():
        if v % (i - j):
            return f"i - {j} = {decimal_str(i - j)} must divide v = {decimal_str(v)}"
    return None


def product_inverse(k: int, v: int, i: int) -> InverseCertificate:
    """Build the inverse certificate for divisor_product(k, v) modulo 1 + i*v.

    Built once, checked once at the boundary.  The inverse p is the product
    of the closed-form inverses of the factors 1 + t*v (whose z is
    v // (i - t), exact by precondition), and q is the exact quotient
    (u*p - 1) // (1 + i*v), the only one the identity admits.
    """
    for n, what in ((k, "k"), (v, "v"), (i, "i")):
        _natural(n, what)
    violation = _product_violation(k, v, i)
    if violation:
        raise PreconditionViolated(violation)
    u, p = divisor_product(k, v), _inverse(k, v, i)
    return _checked(InverseCertificate(k=k, v=v, i=i, u=u, p=p, q=(u * p - 1) // (1 + i * v)))


def _inverse(k: int, v: int, i: int) -> int:
    # the inverse of divisor_product(k, v) modulo 1 + i*v, unchecked: the
    # product of the factors' p' alone, each z = v // (i - t) exact by precondition
    return math.prod(_pprime(t, i, v // (i - t)) for t in range(1, k + 1))


def _recode_violation(v: int, vprime: int, x: int, k: int) -> str | None:
    # why recode_extend(_, v, vprime, x, k) is undefined, or None; a
    # vprime >= 1 divisible by 1..k is at least lcm(1..k) >= 2**(k-1)
    if vprime < v:
        return f"need vprime >= v, got vprime={decimal_str(vprime)}, v={decimal_str(v)}"
    if (k + 1) * vprime < x:
        return f"need (k+1)*vprime >= x, got {decimal_str((k + 1) * vprime)} < {decimal_str(x)}"
    if vprime and (vprime.bit_length() < k or vprime % lcm_upto(k)):
        return f"vprime = {decimal_str(vprime)} must be divisible by 1..{decimal_str(k)}"
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
    checked against the contract once, before it is returned.  Each residue
    family costs at most a constant times its direct remainders (``_residues``).
    Every argument must be a natural int, as in ``RecodeWitness``.
    """
    for n, what in ((u, "u"), (v, "v"), (vprime, "vprime"), (x, "x"), (k, "k")):
        _natural(n, what)
    violation = _recode_violation(v, vprime, x, k)
    if violation:
        raise PreconditionViolated(violation)
    # each old residue is read once; the result is checked against the same list
    residues = _residues(u, v, k) + [x]
    return _contract(u, v, vprime, residues, _recode(residues, vprime))


def _contract(u: int, v: int, vprime: int, residues: list[int], acc: int) -> int:
    # the self-check of an append step or a build: acc carries residues, x last, at vprime
    if not _carries(acc, vprime, residues):
        witness = RecodeWitness(u, v, vprime, residues[-1], len(residues) - 1, acc)
        raise RuntimeError(f"recode failed its own contract: {witness}")
    return acc


def _recode(residues: list[int], vprime: int) -> int:
    # every level of the loop: acc rem (1 + t*vprime) == residues[t-1]
    return _levels(residues, vprime, residues[0], 1, 1)[0]


def _levels(residues: list[int], vprime: int, acc: int, prefix: int, level: int) -> tuple[int, int]:
    # the loop from level on: acc reads residues[:level], prefix is the product
    # of 1 + t*vprime over t < level; returns both as the last level leaves them
    for t in range(level, len(residues)):
        prefix *= 1 + t * vprime
        acc = acc + (residues[t] + acc * (t + 1) * vprime) * prefix * _inverse(t, vprime, t + 1)
    return acc, prefix


def _residues(u: int, v: int, k: int) -> list[int]:
    # [u % (1 + t*v) for t = 1..k], read after one wide reduction of u modulo
    # the divisor product, which every modulus divides; the product is grown
    # a factor at a time and dropped once it exceeds u, where reducing would
    # change nothing, so the reader costs at most a constant times k reads
    product = 1
    for t in range(1, k + 1):
        product *= 1 + t * v
        if product > u:
            break
    else:
        u = _divmod(u, product)[1]
    return [u % (1 + t * v) for t in range(1, k + 1)]


def _carries(uprime: int, vprime: int, residues: list[int]) -> bool:
    # the append contract: uprime reads the t-th residue at 1 + t*vprime for
    # every t, counted from 1; every position is read, a mismatch or not
    return _residues(uprime, vprime, len(residues)) == residues


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
        vprime's bit length.  Each residue family, of u and of uprime, costs
        at most a constant times its direct remainders (``_residues``).
        """
        if _recode_violation(self.v, self.vprime, self.x, self.k):
            return False
        if self.vprime == 0:
            return True
        return _carries(self.uprime, self.vprime, _residues(self.u, self.v, self.k) + [self.x])


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
        _natural(r, "residue")
        _natural(m, "modulus")
        if r >= m:  # so m is positive
            raise PreconditionViolated(
                f"residue {decimal_str(r)} is not below modulus {decimal_str(m)}")
    u, prod = 0, 1
    for r, m in zip(residues, moduli):
        try:
            s = pow(prod % m, -1, m)
        except ValueError:
            raise NotCoprime(f"moduli share the factor {decimal_str(math.gcd(prod, m))}") from None
        u += prod * (((r - u) * s) % m)
        prod *= m
    return u
