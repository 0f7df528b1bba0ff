"""Acceptance suite: one test per shipped guarantee, at full stated budgets.

Each test prints a single "ACCEPTANCE <n> <name>: PASS" line when its
criterion holds (run with -s to see them); tolerances are exact integer
equality throughout, there is nothing to calibrate.
"""

import json
import math
import random
import subprocess
import sys

from seqcode.codec import (
    pair,
    seq_append,
    seq_decode,
    seq_empty,
    unpair,
    is_pair_code,
    verify_seq_step,
)
from seqcode.models import axioms as ax
from seqcode.models.checker import (
    NAT,
    POLYNAT,
    QEXT,
    SampleBudget,
    check_axiom,
    run_axiom,
)
from seqcode.models.qext import qext_swap
from seqcode.witness import (
    crt,
    divisor_product,
    factor_inverse,
    lcm_upto,
    product_inverse,
    recode_extend,
)


def _report(num: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}")
    assert not failures, f"{name}: first failures: {failures[:5]}"


def test_acceptance_1_pair_roundtrip_and_code_detection():
    failures = []
    for x in range(200):
        for y in range(200):
            if unpair(pair(x, y)) != (x, y):
                failures.append((x, y))
    rng = random.Random(12001)
    for _ in range(1000):
        x = rng.randrange(2**128)
        y = rng.randrange(2**128)
        if unpair(pair(x, y)) != (x, y):
            failures.append((x, y))
    # independent detection oracle: plain enumeration of all codes below 1e5
    codes = set()
    s = 0
    while s * s < 10**5:
        codes.update(s * s + x for x in range(s + 1) if s * s + x < 10**5)
        s += 1
    for w in range(10**5):
        if is_pair_code(w) != (w in codes):
            failures.append(w)
    _report(1, "pair roundtrip and code detection", failures)


def test_acceptance_2_sequence_contract():
    failures = []
    rng = random.Random(987654321)
    for trial in range(500):
        xs = [rng.randrange(2**64) for _ in range(rng.randrange(13))]
        handle = seq_empty()
        ok = True
        for x in xs:
            nxt = seq_append(handle, x)
            if not verify_seq_step(handle.w, handle.len, x, nxt.w):
                ok = False
            handle = nxt
        if not ok or seq_decode(handle) != xs:
            failures.append(trial)
    _report(2, "append contract and full roundtrip", failures)


def test_acceptance_3_factor_identity_sweep():
    failures = []
    for kprime in range(1, 9):
        for i in range(kprime + 1, 17):
            for z in range(9):
                w = factor_inverse(kprime, i, z)
                v = z * (i - kprime)
                left = (1 + kprime * v) * w.pprime
                right = 1 + (1 + i * v) * w.qprime
                if left != right:
                    failures.append((kprime, i, z))
    _report(3, "factor-inverse identity sweep", failures)


def test_acceptance_4_inverse_certificates():
    failures = []
    for k in range(6):
        for i in range(k + 1, k + 7):
            base = 1 if k == 0 else math.lcm(*[i - j for j in range(1, k + 1)])
            for v in range(base, 10**4 + 1, base):
                cert = product_inverse(k, v, i)
                if cert.u * cert.p % (1 + i * v) != 1 or not cert.verify():
                    failures.append((k, v, i))
    _report(4, "inverse certificates over the sweep", failures)


def test_acceptance_5_recode_matches_crt_oracle():
    failures = []
    rng = random.Random(5771)
    for trial in range(200):
        k = rng.randrange(9)
        u = rng.randrange(2**64)
        v = rng.randrange(10**4)
        base = lcm_upto(k)
        vprime = base * (rng.randrange(1, 8) + -(-max(v, 1) // base))
        x = rng.randrange((k + 1) * vprime + 1)
        uprime = recode_extend(u, v, vprime, x, k)
        moduli = [1 + t * vprime for t in range(1, k + 2)]
        targets = [u % (1 + t * v) for t in range(1, k + 1)] + [x]
        coprime = all(
            math.gcd(moduli[a], moduli[b]) == 1
            for a in range(len(moduli)) for b in range(a + 1, len(moduli))
        )
        reconstructed = crt(targets, moduli)
        if not coprime or [uprime % m for m in moduli] != targets \
                or [reconstructed % m for m in moduli] != targets:
            failures.append(trial)
    _report(5, "recode construction agrees with CRT oracle", failures)


def test_acceptance_6_model_suite():
    failures = []
    nat_budget = SampleBudget(samples=10**4, seed=601)
    poly_budget = SampleBudget(samples=10**3, seed=601)
    for axiom in ax.CORE_AXIOMS + ax.DERIVED_LAWS:
        if not check_axiom(NAT, axiom.id, nat_budget).passed:
            failures.append(("nat", axiom.id))
        if not check_axiom(POLYNAT, axiom.id, poly_budget).passed:
            failures.append(("polynat", axiom.id))
    if not check_axiom(NAT, "SUBTRACTION", nat_budget).passed:
        failures.append(("nat", "SUBTRACTION"))
    sub = check_axiom(POLYNAT, "SUBTRACTION", poly_budget)
    if sub.verdict != "counterexample" or sub.counterexample != {"x": ["1"], "y": ["0", "1"]}:
        failures.append(("polynat", "SUBTRACTION", sub.verdict))
    q_budget = SampleBudget(samples=10**3, seed=601)
    for report in [run_axiom(QEXT, a, q_budget) for a in ax.Q_AXIOMS]:
        if not report.passed:
            failures.append(("qext", report.axiom))
    if not run_axiom(QEXT, ax.AUTOMORPHISM, q_budget).passed:
        failures.append(("qext", "AUTOMORPHISM"))
    for x in QEXT.box:
        if qext_swap(qext_swap(x)) != x:
            failures.append(("qext", "involution", x))
    _report(6, "model suite verdicts", failures)


def test_acceptance_7_cli_determinism():
    args = [
        sys.executable, "-m", "seqcode", "check-axioms",
        "--model", "polynat", "--seed", "42", "--samples", "1000", "--json",
    ]
    first = subprocess.run(args, capture_output=True, timeout=600)
    second = subprocess.run(args, capture_output=True, timeout=600)
    failures = []
    if first.returncode != 0 or second.returncode != 0:
        failures.append(("exit", first.returncode, second.returncode))
    if first.stdout != second.stdout:
        failures.append("stdout differs between runs")
    if not first.stdout.strip():
        failures.append("no output")
    for line in first.stdout.splitlines():
        if json.loads(line)["verdict"] != "pass":
            failures.append(line)
    _report(7, "byte-identical seeded CLI output", failures)
