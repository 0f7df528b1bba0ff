"""Sequence coding over big naturals, checkable witnesses, and a model lab.

Three layers:

* ``seqcode.codec``: quadratic pairing, the remainder-based entry readers,
  and append-only sequence handles where any natural can be an entry.
* ``seqcode.witness``: the constructive machinery behind appends (divisor
  products, certified modular inverses, residue recoding) plus an
  independent CRT cross-check.
* ``seqcode.models``: ordered-semiring and successor-arithmetic axioms
  checked over the naturals, lexicographically ordered polynomials, and
  the two-atom extension of the naturals.
"""

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

__version__ = "0.1.0"
