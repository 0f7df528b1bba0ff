"""Seeded inputs, timed operations and independent output checks.

Each workload is split in two steps so the smoke test can compare inputs
without running the library:

* ``generate(name, seed)`` draws every input from the seed alone and
  returns plain data (labels, tuples of ints).
* ``prepare(name, inputs, work_dir)`` turns those inputs into blocks of
  ``Op``s, calling the library where a workload's set-up needs it (the
  codes ``read`` decodes, the witness files ``audit`` verifies).

An op's ``run`` is the timed call into the library; its ``check`` is the
untimed comparison against an oracle that does not share the library's
code path (``math.isqrt`` unpairing, the remainder definition, known
verdicts).  Every block holds each op class in a fixed share, so a run
made of whole blocks always has the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

from seqcode import cli, codec, witness
from seqcode.models import axioms, checker

WORKLOADS = ("build", "read", "audit", "axioms")

# Blocks drawn per run; a run longer than this many blocks cycles them.
BLOCKS = 8

# The standard length mix, one block of 20 sequences: (label, k, big
# entries).  Big entries (2**199 <= x < 2**200) go only into k = 8
# sequences: in a k = 24 sequence a single one makes a build cost 1.6 s
# and a decode 4.7 s, so they would form a class of their own.  Thirteen
# of twenty are k = 8 so that the median build (rank 10 of 20) stays well
# inside the plain k = 8 class rather than at its edge.
LENGTH_MIX = ((("k8", 8, 0),) * 12 + (("k8big", 8, 2),)
              + (("k16", 16, 0),) * 4 + (("k24", 24, 0),) * 3)

# read: the pool holds this many standard blocks of codes.  Decoding one
# k = 24 code costs 450-520 ms depending on the code, so a pool with a
# single block (three such codes) makes the read figures depend on the seed.
READ_POOL_BLOCKS = 2

# audit, one block of 20 ops: 15 verify-witness and 5 appends, all on one
# of AUDIT_SLICES independent slices of witness files and codes; append and
# verify costs vary by a few percent from one code or witness to the next,
# so cycling through slices keeps the figures off the seed.  Nine of the 15
# verifies check the recode steps k = 15..23 of one k = 24 sequence
# (0.8-1.7 ms, mostly parse_decimal and remainders of 16k-37k-bit numbers);
# the median op falls in the middle of that class.  Factor and product
# verifies cost about 0.45 ms, mostly argparse; as the median class they
# left it on the shoulder of their distribution, where it drifted by up
# to a quarter from run to run.  Appends go onto k = 8 and k = 16 codes: a
# k = 24 append costs about 1.1 s, so a run could not hold the 25 or so of
# them the tail percentile needs to fall inside that class.
APPEND_MIX = (("k8", 8),) * 3 + (("k16", 16),) * 2
RECODE_LEN = 24
RECODE_STEPS = range(15, 24)
VERIFY_MIX = {"factor-inverse": 3, "product-inverse": 3, "recode": len(RECODE_STEPS)}
AUDIT_SLICES = 4
TAMPER_FIELDS = {
    "recode": ("uprime", "x"),
    "product-inverse": ("u", "p", "q"),
    "factor-inverse": ("pprime", "qprime"),
}

# axioms: five times the library's default budget.  Ops then cost 20-25 ms
# for every nat statement and 0.2-85 ms elsewhere; nat statements run twice
# per block so that the median falls well inside that 20-25 ms class, while
# the tail falls on the costliest polynat statements (70-85 ms).  At the
# default budget the tail sat on 30 ms ops, where scheduler noise moved it
# by up to 30% from run to run.
AXIOM_SAMPLES = 5000
NAT_REPEATS = 2
POLYNAT_SUBTRACTION_COUNTEREXAMPLE = {"x": ["1"], "y": ["0", "1"]}

# Ops per traced pass: whole blocks, so the counts repeat exactly.
TRACE_BLOCKS = {"build": 2, "read": 1, "audit": 2, "axioms": 2}


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    w_bits: int = 0  # bits of the code the op reads or builds; 0 when it has none
    k: int = 0  # entries a build op appends


def rng_for(seed: int, stream: str) -> random.Random:
    return random.Random(f"seqcode-bench:{seed}:{stream}")


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the int<->str digit cap for the harness's own conversions only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def oracle_decode(w: int, k: int) -> list[int]:
    """Entries of w by the definition: w = (u+v)**2 + u, entry i = u mod (1+(i+1)v).

    Non-codes decode to zeros, as the totalized reader specifies.
    """
    s = math.isqrt(w)
    u = w - s * s
    if u > s:
        return [0] * k
    v = s - u
    return [u % (1 + (i + 1) * v) for i in range(k)]


def _big(rng: random.Random) -> int:
    return rng.getrandbits(199) | (1 << 199)


def _sequence(rng: random.Random, k: int, n_big: int) -> tuple[int, ...]:
    xs = [rng.getrandbits(64) for _ in range(k)]
    for pos in rng.sample(range(k), n_big):
        xs[pos] = _big(rng)
    return tuple(xs)


def mix_block(rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    """One block of the standard length mix, shuffled."""
    block = [(label, _sequence(rng, k, n_big)) for label, k, n_big in LENGTH_MIX]
    rng.shuffle(block)
    return block


def size_probe(seed: int) -> list[tuple[int, ...]]:
    """The sequences code_bits_ratio is measured on: one standard block."""
    return [xs for _, xs in mix_block(rng_for(seed, "probe"))]


# --- input generation: plain data only, no library calls ---------------------

def _generate_build(seed: int):
    rng = rng_for(seed, "build")
    return [mix_block(rng) for _ in range(BLOCKS)]


def _generate_read(seed: int):
    rng = rng_for(seed, "read")
    pool = [seq for _ in range(READ_POOL_BLOCKS) for seq in mix_block(rng)]
    blocks = []
    for _ in range(BLOCKS):
        ops = [("decode", j, 0) for j in range(len(pool))]
        ops += [("beta", j, rng.randrange(len(xs))) for j, (_, xs) in enumerate(pool)]
        rng.shuffle(ops)
        blocks.append(ops)
    return {"pool": pool, "blocks": blocks}


def _audit_slice(rng: random.Random):
    appends = [(label, _sequence(rng, k, 0)) for label, k in APPEND_MIX]
    recoded = _sequence(rng, RECODE_LEN, 0)
    # product-inverse certificates reuse the v' of a recode step that had k
    # entries before it (v' divisible by lcm(1..k+1)), so any t <= k keeps
    # every precondition of product_inverse
    products = []
    for _ in range(VERIFY_MIX["product-inverse"]):
        j = rng.randrange(len(RECODE_STEPS))
        products.append((j, rng.randint(1, RECODE_STEPS[j])))
    factors = []
    for _ in range(VERIFY_MIX["factor-inverse"]):
        kprime = rng.randint(1, 23)
        factors.append((kprime, rng.randint(kprime + 1, 25), rng.getrandbits(64)))
    tampered = {kind: (rng.randrange(VERIFY_MIX[kind]), rng.choice(fields))
                for kind, fields in TAMPER_FIELDS.items()}
    return {"appends": appends, "recoded": recoded, "products": products,
            "factors": factors, "tampered": tampered}


def _generate_audit(seed: int):
    rng = rng_for(seed, "audit")
    slices = [_audit_slice(rng) for _ in range(AUDIT_SLICES)]
    blocks = []
    for b in range(BLOCKS):
        n = b % AUDIT_SLICES
        ops = [("verify", n, kind, j) for kind, count in VERIFY_MIX.items() for j in range(count)]
        ops += [("append", n, j, rng.getrandbits(64)) for j in range(len(APPEND_MIX))]
        rng.shuffle(ops)
        blocks.append(ops)
    return {"slices": slices, "blocks": blocks}


def axiom_cases() -> list[tuple[str, str]]:
    """One block: all 20 statements on nat (NAT_REPEATS times) and polynat,
    Q_AXIOMS + AUTOMORPHISM on qext."""
    ids = [ax.id for ax in axioms.CORE_AXIOMS + axioms.DERIVED_LAWS] + [axioms.SUBTRACTION.id]
    cases = [("nat", axiom_id) for axiom_id in ids] * NAT_REPEATS
    cases += [("polynat", axiom_id) for axiom_id in ids]
    cases += [("qext", ax.id) for ax in axioms.Q_AXIOMS + (axioms.AUTOMORPHISM,)]
    return cases


def _generate_axioms(seed: int):
    rng = rng_for(seed, "axioms")
    blocks = []
    for _ in range(BLOCKS):
        ops = [(model, axiom_id, rng.getrandbits(32)) for model, axiom_id in axiom_cases()]
        rng.shuffle(ops)
        blocks.append(ops)
    return blocks


_GENERATORS = {
    "build": _generate_build,
    "read": _generate_read,
    "audit": _generate_audit,
    "axioms": _generate_axioms,
}


def generate(name: str, seed: int):
    """Every input of workload ``name`` for ``seed``, as plain data."""
    return _GENERATORS[name](seed)


# --- preparation and ops ------------------------------------------------------

def _prepare_build(inputs, work_dir) -> list[list[Op]]:
    def op(label, xs):
        built = Op(label, lambda: codec.seq_build(xs), None, k=len(xs))

        def check(handle):
            built.w_bits = handle.w.bit_length()
            return handle.len == len(xs) and oracle_decode(handle.w, len(xs)) == list(xs)

        built.check = check
        return built

    return [[op(label, xs) for label, xs in block] for block in inputs]


def _prepare_read(inputs, work_dir) -> list[list[Op]]:
    pool = [(label, xs, codec.seq_build(xs)) for label, xs in inputs["pool"]]

    def op(kind, j, pos):
        label, xs, handle = pool[j]
        bits = handle.w.bit_length()
        if kind == "decode":
            return Op(f"decode {label}", lambda: codec.seq_decode(handle),
                      lambda out: out == list(xs), bits)
        return Op(f"beta {label}", lambda: codec.beta_total(handle.w, pos),
                  lambda out: out == xs[pos], bits)

    return [[op(*spec) for spec in block] for block in inputs["blocks"]]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_line(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _witnesses(piece) -> dict[str, list[dict]]:
    xs = piece["recoded"]
    handles = [codec.seq_empty()]
    for x in xs:
        handles.append(codec.seq_append(handles[-1], x))
    recode_objs, vprimes = [], []
    for k in RECODE_STEPS:
        u, v = codec.unpair(handles[k].w)
        uprime, vprime = codec.unpair(handles[k + 1].w)
        recode_objs.append(witness.RecodeWitness(u, v, vprime, xs[k], k, uprime).to_json())
        vprimes.append(vprime)
    products = [witness.product_inverse(t, vprimes[j], t + 1).to_json()
                for j, t in piece["products"]]
    factors = [witness.factor_inverse(*args).to_json() for args in piece["factors"]]
    objs = {"recode": recode_objs, "product-inverse": products, "factor-inverse": factors}
    with unlimited_int_str():
        for kind, (j, field) in piece["tampered"].items():
            objs[kind][j] = {**objs[kind][j], field: str(int(objs[kind][j][field]) + 1)}
    return objs


def _prepare_audit(inputs, work_dir) -> list[list[Op]]:
    paths, appends = {}, {}
    for n, piece in enumerate(inputs["slices"]):
        slice_dir = os.path.join(work_dir, f"slice{n}")
        os.makedirs(slice_dir, exist_ok=True)
        for kind, objs in _witnesses(piece).items():
            for j, obj in enumerate(objs):
                path = os.path.join(slice_dir, f"{kind}-{j}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
                paths[n, kind, j] = path
        for j, (label, xs) in enumerate(piece["appends"]):
            handle = codec.seq_build(xs)
            with unlimited_int_str():
                appends[n, j] = (label, xs, str(handle.w), handle.w.bit_length())

    def verify_op(n, kind, j):
        valid = inputs["slices"][n]["tampered"][kind][0] != j
        argv = ["verify-witness", paths[n, kind, j], "--json"]

        def check(result):
            code, out = result
            return code == (0 if valid else 1) and _json_line(out) == {"type": kind, "valid": valid}

        return Op(f"verify {kind}", lambda: _cli(argv), check)

    def append_op(n, j, x):
        label, xs, w_text, bits = appends[n, j]
        k = len(xs)
        argv = ["append", "--len", str(k), "--w", w_text, "--x", str(x), "--json"]

        def check(result):
            code, out = result
            obj = _json_line(out)
            if code != 0 or not isinstance(obj, dict) or set(obj) != {"len", "w", "verified"}:
                return False
            if obj["len"] != str(k + 1) or obj["verified"] is not True:
                return False
            with unlimited_int_str():
                w_new = int(obj["w"])
            return oracle_decode(w_new, k + 1) == list(xs) + [x]

        return Op(f"append {label}", lambda: _cli(argv), check, bits)

    return [[verify_op(*args) if kind == "verify" else append_op(*args) for kind, *args in block]
            for block in inputs["blocks"]]


def expected_verdict(model: str, axiom_id: str):
    """(verdict, counterexample) the checker must report: only polynat lacks subtraction."""
    if (model, axiom_id) == ("polynat", "SUBTRACTION"):
        return "counterexample", POLYNAT_SUBTRACTION_COUNTEREXAMPLE
    return "pass", None


def _prepare_axioms(inputs, work_dir) -> list[list[Op]]:
    q_statements = {ax.id: ax for ax in axioms.Q_AXIOMS + (axioms.AUTOMORPHISM,)}

    def op(model_name, axiom_id, budget_seed):
        budget = checker.SampleBudget(samples=AXIOM_SAMPLES, seed=budget_seed)
        model = checker.MODELS[model_name]

        def run():
            if model_name == "qext":
                return checker.run_axiom(model, q_statements[axiom_id], budget)
            return checker.check_axiom(model, axiom_id, budget)

        def check(report):
            verdict, counterexample = expected_verdict(model_name, axiom_id)
            return (report.model == model_name and report.axiom == axiom_id
                    and report.verdict == verdict and report.counterexample == counterexample)

        return Op(f"{model_name} {axiom_id}", run, check)

    return [[op(*spec) for spec in block] for block in inputs]


_PREPARERS = {
    "build": _prepare_build,
    "read": _prepare_read,
    "audit": _prepare_audit,
    "axioms": _prepare_axioms,
}


def prepare(name: str, inputs, work_dir: str) -> list[list[Op]]:
    """Turn generated inputs into blocks of ops; this is the timed set-up."""
    return _PREPARERS[name](inputs, work_dir)


def code_bits_ratio(seed: int) -> tuple[float, bool]:
    """Bits of w over bits of the least CRT code on the same v, over the size probe.

    Returns (sum of code bits / sum of minimal bits, all checks passed).
    Each code must decode to its entries by ``oracle_decode``; ``witness.crt``
    gives the least u with the same residues, which can never exceed the
    code's own u.  A code that fails either check is left out of the ratio.
    """
    code_bits = min_bits = 0
    ok = True
    for xs in size_probe(seed):
        w = codec.seq_build(xs).w
        s = math.isqrt(w)
        u = w - s * s
        v = s - u
        moduli = [1 + (i + 1) * v for i in range(len(xs))]
        try:
            u_min = witness.crt(list(xs), moduli) if oracle_decode(w, len(xs)) == list(xs) else None
        except ValueError:  # moduli of a corrupted code need not be coprime
            u_min = None
        if u_min is None or u_min > u or [u_min % m for m in moduli] != list(xs):
            ok = False
            continue
        code_bits += w.bit_length()
        min_bits += ((u_min + v) ** 2 + u_min).bit_length()
    return (code_bits / min_bits if min_bits else 0.0), ok
