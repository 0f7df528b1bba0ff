"""The two-atom model, the checking engine, and the cross-model verdicts."""

import dataclasses
import hashlib
import itertools
import json
import operator
import random

import pytest

from seqcode._decimal import decimal_str
from seqcode.models import axioms as ax
from seqcode.models import checker, polynat, qext
from seqcode.models.checker import (
    MODELS,
    NAT,
    POLYNAT,
    QEXT,
    Model,
    SampleBudget,
    UnknownAxiom,
    _exhaustive_box,
    check_axiom,
    run_axiom,
)
from seqcode.models.qext import A0, A1, add, mul, qext_swap, subtract

FAST = SampleBudget(samples=200, seed=7)


# ---------------------------------------------------------------- atom tables


def test_atoms_absorb_addition_both_sides():
    for x in [0, 1, 99, A0, A1]:
        assert add(A0, x) == A0
        assert add(A1, x) == A1
    assert add(5, A0) == A0
    assert add(0, A1) == A1


def test_atom_multiplication_table():
    assert mul(A0, 0) == 0
    assert mul(A1, 0) == 0
    assert mul(A0, 7) == A0
    assert mul(A0, A1) == A0
    assert mul(3, A1) == A1
    assert mul(0, A1) == A1  # absorption holds even for the factor 0
    assert mul(0, 5) == 0


def test_corner_cases_are_not_commutative():
    assert mul(A0, 0) != mul(0, A0)


def test_atoms_are_their_own_successors():
    assert add(A0, qext.ONE) == A0
    assert add(A1, qext.ONE) == A1
    assert add(4, qext.ONE) == 5


def test_successor_recursion_example():
    # 2 * S(a1) = 2 * a1 = a1, and 2*a1 + 2 = a1
    assert mul(2, add(A1, qext.ONE)) == A1
    assert add(mul(2, A1), 2) == A1


def test_subtract():
    # subtract(p, q) is the z with z + q == p
    assert subtract(0, 1) is None
    assert subtract(8, 1) == 7
    assert subtract(8, 8) == 0
    assert subtract(A0, 1) == A0
    assert subtract(A1, A0) == A1
    assert subtract(3, A0) is None


def test_swap_fixed_values():
    assert qext_swap(5) == 5
    assert qext_swap(A0) == A1
    assert qext_swap(A1) == A0


def test_swap_homomorphism_spot_checks():
    f = qext_swap
    assert f(add(A0, 3)) == add(f(A0), f(3)) == A1
    assert f(mul(2, 3)) == 6
    assert f(mul(A0, A1)) == mul(A1, A0) == A1


def test_add_and_mul_agree_with_std_on_the_box():
    for x in QEXT.box:
        for y in QEXT.box:
            for op, on_naturals in ((add, operator.add), (mul, operator.mul)):
                got = op(x, y)
                if type(x) is str or type(y) is str:
                    assert got in (A0, A1, 0)
                    continue
                assert got == on_naturals(x, y) and type(got) is int


def test_carrier_tables_and_draws_are_pinned():
    # every operation over the box, and the first draws of five streams, in
    # QEXT.fmt; both hashes were recorded on the QElem carrier this replaced
    f = QEXT.fmt
    lines = []
    for x in QEXT.box:
        for y in QEXT.box:
            d = QEXT.subtract(x, y)
            lines.append(f"{f(x)} {f(y)} {f(QEXT.add(x, y))} {f(QEXT.mul(x, y))} "
                         f"{'-' if d is None else f(d)}")
        lines.append(f"swap {f(x)} {f(QEXT.automorphism(x))}")
    tables = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert tables == "6ba8a3527ae3a7db66ccedc4e48758419cf6e3894984157577701a4830f7d06b"
    draws = [f(e) for s in range(5)
             for e in itertools.islice(QEXT.draws(random.Random(s)), 10_000)]
    digest = hashlib.sha256(("\n".join(draws) + "\n").encode()).hexdigest()
    assert digest == "fec30b172e29d3460ee57b84ca03783a4b6f076922110a408d87b0bcbe52edb0"


# ---------------------------------------------------------------- engine


def test_unknown_axiom():
    with pytest.raises(UnknownAxiom):
        check_axiom(NAT, "FROBNICATE", FAST)


def test_order_axiom_rejected_without_order():
    with pytest.raises(ValueError):
        check_axiom(QEXT, "O1", FAST)


_NO_SUBTRACT = dataclasses.replace(NAT, name="bare", subtract=None)


@pytest.mark.parametrize("model, axiom_id, missing", [
    (NAT, "AUTOMORPHISM", "an automorphism"),
    (POLYNAT, "AUTOMORPHISM", "an automorphism"),
    (QEXT, "SUBTRACTION", "an order"),  # the first hook missing is named
    (_NO_SUBTRACT, "SUBTRACTION", "a subtraction"),
    (_NO_SUBTRACT, "Q3", "a subtraction"),
], ids=lambda v: getattr(v, "name", v))
def test_statements_needing_a_missing_hook_are_refused_before_anything_runs(
        monkeypatch, model, axiom_id, missing):
    made = []
    monkeypatch.setattr(checker.random, "Random", lambda *args: made.append(args))
    with pytest.raises(ValueError) as refused:
        check_axiom(model, axiom_id, FAST)
    assert str(refused.value) == f"axiom {axiom_id} needs {missing}, but model {model.name} has none"
    assert made == []  # refused before the generator is seeded


def test_registry_covers_the_documented_ids():
    ids = set(ax.REGISTRY)
    assert {"A1", "A2", "A3", "M1", "M2", "M3", "AM",
            "O1", "O2", "S1", "S2", "OA", "OM"} <= ids
    assert {"LE_ANTISYM", "ADD_CANCEL_LE", "MUL_ZERO",
            "ZERO_MIN", "MUL_CANCEL_LE", "LE_SUCC_SPLIT"} <= ids
    assert "SUBTRACTION" in ids
    assert {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "AUTOMORPHISM"} <= ids
    assert len(ax.CORE_AXIOMS) == 13
    assert len(ax.DERIVED_LAWS) == 6
    # every statement a model names is reachable by id, and check_axiom finds it
    for model in MODELS.values():
        for statement in model.statements:
            assert ax.REGISTRY[statement.id] is statement
    assert check_axiom(QEXT, "Q3", FAST) == run_axiom(QEXT, ax.Q_AXIOMS[2], FAST)


def test_engine_finds_planted_violation():
    broken = Model(
        name="broken",
        zero=0,
        one=1,
        add=lambda x, y: x + y + 1,  # shifts every sum; x + 0 = x must fail
        mul=operator.mul,
        le=operator.le,
        box=tuple(range(6)),
        draws=lambda rng: map(lambda r: r.randrange(100), itertools.repeat(rng)),
    )
    report = check_axiom(broken, "A1", FAST)
    assert report.verdict == "counterexample"
    assert report.counterexample == {"x": "0"}
    # the reported assignment genuinely falsifies the axiom
    assert broken.add(0, broken.zero) != 0


def test_budget_takes_naturals_only():
    # the library's one rule for naturals: a non-int (a bool too) is a TypeError,
    # a negative int a ValueError that names its field
    for bad in ({"samples": 1.5}, {"seed": "3"}, {"samples": True}):
        with pytest.raises(TypeError):
            SampleBudget(**bad)
    for field, bad in (("samples", -5), ("seed", -3)):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative, got {bad}$"):
            SampleBudget(**{field: bad})
    assert SampleBudget(samples=0, seed=0) == SampleBudget(0, 0)


def test_budget_message_shows_a_wide_int():
    wide = -(2**20000)
    with pytest.raises(ValueError) as info:
        SampleBudget(seed=wide)
    assert str(info.value) == f"seed must be nonnegative, got {decimal_str(wide)}"


def test_one_generator_per_run(monkeypatch):
    made = []
    real = random.Random

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(checker.random, "Random", counting)
    for samples in (0, 1, 500):
        made.clear()
        assert run_axiom(NAT, ax.REGISTRY["A2"], SampleBudget(samples, seed=9)).passed
        assert made == [(9,)]


# adds exactly unless x >= 2**23 and y < 2**22, where it adds one more; no box
# element reaches 2**23, so x + y = y + x can only fail on a sampled assignment
_PLANTED = Model(
    name="planted",
    zero=0,
    one=1,
    add=lambda x, y: x + y + (x >= 2**23 > 2**22 > y),
    mul=operator.mul,
    le=operator.le,
    box=tuple(range(6)),
    draws=lambda rng: map(lambda r: r.getrandbits(24), itertools.repeat(rng)),
)


def test_sampled_violation_follows_one_stream():
    found_at = []
    for seed in (0, 1, 7, 123):
        report = check_axiom(_PLANTED, "A2", SampleBudget(samples=1000, seed=seed))
        # oracle: one generator seeded with the seed, x then y for each sample
        rng = random.Random(seed)
        for t in itertools.count(1):
            x, y = rng.getrandbits(24), rng.getrandbits(24)
            if _PLANTED.add(x, y) != _PLANTED.add(y, x):
                break
        assert report.verdict == "counterexample"
        assert report.counterexample == {"x": str(x), "y": str(y)}
        assert report.samples == len(_PLANTED.box) ** 2 + t
        found_at.append(t)
    assert max(found_at) > 1  # the stream carries on past the first sample


def _recording_run(arity, samples, fail_at, seed=3):
    """run_axiom on a counting sampler and a statement that fails at sample fail_at."""
    draws, seen = [], []

    def sample(rng):
        draws.append(rng.getrandbits(16))
        return draws[-1]

    def holds(model, args):
        seen.append(args)
        return len(seen) < fail_at  # the re-check of the violation fails too

    model = dataclasses.replace(NAT, name="counting", box=(),
                                draws=lambda rng: map(sample, itertools.repeat(rng)))
    statement = ax.Axiom("FAILS_AT", arity, "fails at sample fail_at", (), holds)
    return run_axiom(model, statement, SampleBudget(samples, seed)), draws, seen


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sampled_assignments_are_drawn_lazily_in_variable_order(arity):
    for fail_at in (1, 2, 7):
        report, draws, seen = _recording_run(arity, samples=50, fail_at=fail_at)
        rng = random.Random(3)
        want = [tuple(rng.getrandbits(16) for _ in range(arity)) for _ in range(fail_at)]
        assert seen[:fail_at] == want  # x, then y, then z, sample after sample
        assert len(draws) == arity * fail_at  # nothing drawn past the violation
        assert report.samples == fail_at and report.verdict == "counterexample"
        assert report.counterexample == dict(zip("xyz", map(str, want[-1])))
    report, draws, seen = _recording_run(arity, samples=0, fail_at=1)
    assert (report.verdict, report.samples, draws, seen) == ("pass", 0, [], [])


def test_closed_statements_count_every_sample():
    # arity 0: the box gives the one empty assignment, each sample another
    report, draws, seen = _recording_run(0, samples=7, fail_at=100)
    assert (report.verdict, report.samples, draws, seen) == ("pass", 8, [], [()] * 8)


# the samplers as they drew through randrange: the oracle for the stream test
def _randrange_nat(rng):
    bits = rng.randrange(129)
    return rng.getrandbits(bits) if bits else 0


def _randrange_polynat(rng):
    degree = rng.randrange(6)
    return polynat.canonical(tuple(rng.randrange(100) for _ in range(degree + 1)))


def _randrange_qext(rng):
    r = rng.randrange(12)
    if r == 0:
        return A0
    if r == 1:
        return A1
    return rng.randrange(51)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_samplers_draw_what_randrange_draws(seed):
    for model, oracle in ((NAT, _randrange_nat), (POLYNAT, _randrange_polynat),
                          (QEXT, _randrange_qext)):
        for count in (0, 1, 2500):
            ours, theirs = random.Random(seed), random.Random(seed)
            stream = model.draws(ours)
            assert ours.getstate() == theirs.getstate()  # opening the stream draws nothing
            for got in itertools.islice(stream, count):
                want = oracle(theirs)
                assert got == want and type(got) is type(want)
                if model is POLYNAT:
                    assert got[-1:] != (0,)  # canonical
            assert ours.getstate() == theirs.getstate()  # the same number of draws


def test_a_finite_iterable_of_draws_is_one_stream():
    # x and y come from one iterator over the list, and the sampled phase ends with it
    # a budget past sys.maxsize, which islice refuses as a stop, ends with it too
    model = dataclasses.replace(NAT, name="listed", box=(), draws=lambda rng: [1, 2, 3, 4, 5])
    seen = []
    statement = ax.Axiom("RECORD", 2, "records its assignments", (),
                         lambda m, a: seen.append(a) is None)
    for samples in (9, 2**64):
        seen.clear()
        assert run_axiom(model, statement, SampleBudget(samples=samples, seed=0)).samples == 2
        assert seen == [(1, 2), (3, 4)]


def test_a_per_draw_sampler_is_no_longer_a_model_field():
    # a model written against the per-draw API fails when it is built, not in a run
    with pytest.raises(TypeError, match="sample"):
        dataclasses.replace(NAT, sample=checker._sample_nat)


# SHA-256 over the reports below, recorded before the sampled phase moved to
# one generator per run: the change of stream leaves every verdict unchanged
_REPORTS_SHA256 = "faad581a014559befc5f18511882d93e5f3a8cc785b2ca03cb9db8baf0fb878c"
# Q1-Q7 on nat and polynat, recorded before the samplers became streams
_Q_REPORTS_SHA256 = "b42797d4de7bcb7b6ee303bb85a668504198b479f024300bf5b59e4a98056945"


def _reports_digest(runs):
    digest = hashlib.sha256()
    for seed in (0, 1, 7):
        for samples in (0, 200):
            budget = SampleBudget(samples=samples, seed=seed)
            for model, statement in runs:
                digest.update(run_axiom(model, statement, budget).to_json_line().encode() + b"\n")
    return digest.hexdigest()


def test_reports_of_every_builtin_model_are_pinned():
    runs = [(model, statement) for model in (NAT, POLYNAT)
            for statement in ax.CORE_AXIOMS + ax.DERIVED_LAWS + (ax.SUBTRACTION,)]
    runs += [(QEXT, statement) for statement in ax.Q_AXIOMS + (ax.AUTOMORPHISM,)]
    assert _reports_digest(runs) == _REPORTS_SHA256


def test_q_axiom_reports_on_nat_and_polynat_are_pinned():
    runs = [(model, statement) for model in (NAT, POLYNAT) for statement in ax.Q_AXIOMS]
    assert _reports_digest(runs) == _Q_REPORTS_SHA256


# SHA-256 over POLYNAT's operation tables on its box and over its sample
# streams, recorded while its elements were PolyNat objects; both digests
# read the carrier only through the model's hooks
_POLYNAT_TABLES_SHA256 = "8033351839b0d9192aabb97d86439ed2c547797c2885c194fd1042247dcde8b0"
_POLYNAT_STREAM_SHA256 = "f9f1e4dfda5e3917eec05a97418952ab7a760c393eee7ceb27e2a8ad1e07f44b"


def _json_line(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def test_polynat_carrier_tables_and_draws_are_pinned():
    m, tables, stream = POLYNAT, hashlib.sha256(), hashlib.sha256()
    for x in m.box:
        for y in m.box:
            z = m.subtract(x, y)
            tables.update(_json_line([m.fmt(x), m.fmt(y), m.fmt(m.add(x, y)), m.fmt(m.mul(x, y)),
                                      m.le(x, y), None if z is None else m.fmt(z)]))
    for seed in range(5):
        for e in itertools.islice(m.draws(random.Random(seed)), 10_000):
            stream.update(_json_line(m.fmt(e)))
    assert (tables.hexdigest(), stream.hexdigest()) == (_POLYNAT_TABLES_SHA256, _POLYNAT_STREAM_SHA256)


def test_reports_are_deterministic():
    a = check_axiom(POLYNAT, "OM", SampleBudget(samples=150, seed=42))
    b = check_axiom(POLYNAT, "OM", SampleBudget(samples=150, seed=42))
    assert a == b
    assert a.to_json_line() == b.to_json_line()


def test_report_json_shape():
    report = check_axiom(NAT, "A1", SampleBudget(samples=3, seed=5))
    line = report.to_json_line()
    assert line == (
        '{"model":"nat","axiom":"A1","samples":15,'
        '"verdict":"pass","counterexample":null,"seed":5}'
    )


def test_counterexample_report_json_bytes_are_pinned():
    report = check_axiom(POLYNAT, "SUBTRACTION", SampleBudget(samples=50, seed=1))
    assert report.to_json_line() == (
        '{"model":"polynat","axiom":"SUBTRACTION","samples":69,'
        '"verdict":"counterexample","counterexample":{"x":["1"],"y":["0","1"]},"seed":1}'
    )


def test_report_json_writes_a_seed_past_the_int_str_cap():
    # json.dumps would str() the int and raise past the cap; the line spells it in full
    report = dataclasses.replace(check_axiom(NAT, "A1", SampleBudget(samples=3, seed=5)),
                                 seed=10**5000 - 1)
    assert report.to_json_line() == (
        '{"model":"nat","axiom":"A1","samples":15,'
        '"verdict":"pass","counterexample":null,"seed":' + "9" * 5000 + "}"
    )


def test_exhaustive_box_fits_the_cap():
    three_var = check_axiom(POLYNAT, "A3", SampleBudget(samples=0, seed=0))
    assert three_var.samples == 16 ** 3
    two_var = check_axiom(POLYNAT, "A2", SampleBudget(samples=0, seed=0))
    assert two_var.samples == 64 ** 2


def test_qext_exhaustive_box_keeps_its_atoms_at_every_arity():
    for arity in (1, 2, 3, 4):
        box = _exhaustive_box(QEXT, arity)
        assert A0 in box and A1 in box
    assert len(_exhaustive_box(QEXT, 2)) == len(QEXT.box) == 53


def test_exhaustive_box_shrinks_to_one_element():
    two = dataclasses.replace(NAT, box=(0, 1))
    assert _exhaustive_box(two, 12) == (0, 1)  # 2**12 assignments fit the cap exactly
    assert _exhaustive_box(two, 13) == (0,)


def test_an_empty_box_stays_empty():
    empty = dataclasses.replace(NAT, box=())
    for arity in range(4):
        assert _exhaustive_box(empty, arity) == ()
        # on _recording_run's empty box, arity 0 has the one empty assignment, any other none
        report, draws, seen = _recording_run(arity, samples=0, fail_at=2)
        assert (report.verdict, report.samples, draws) == ("pass", 1 if arity == 0 else 0, [])


# ---------------------------------------------------------------- verdicts


@pytest.mark.parametrize("axiom_id", [a.id for a in ax.CORE_AXIOMS])
def test_core_axioms_pass_on_nat_and_polynat(axiom_id):
    assert check_axiom(NAT, axiom_id, FAST).passed
    assert check_axiom(POLYNAT, axiom_id, FAST).passed


@pytest.mark.parametrize("axiom_id", [a.id for a in ax.DERIVED_LAWS])
def test_derived_laws_pass_on_nat_and_polynat(axiom_id):
    assert check_axiom(NAT, axiom_id, FAST).passed
    assert check_axiom(POLYNAT, axiom_id, FAST).passed


def test_subtraction_passes_on_nat():
    assert check_axiom(NAT, "SUBTRACTION", FAST).passed


def test_subtraction_fails_on_polynat_with_canonical_pair():
    report = check_axiom(POLYNAT, "SUBTRACTION", FAST)
    assert report.verdict == "counterexample"
    assert report.counterexample == {"x": ["1"], "y": ["0", "1"]}


def test_subtraction_counterexample_is_one_and_x():
    report = check_axiom(POLYNAT, "SUBTRACTION", FAST)
    p, q = (polynat.from_json(v) for v in report.counterexample.values())
    assert (p, q) == ((1,), (0, 1))
    assert polynat.le(p, q)
    # no candidate works: matching the constant coefficient is impossible
    assert all(polynat.add(polynat.canonical(cs), p) != q for cs in itertools.product(range(4), repeat=3))


def test_q_axioms_pass_on_qext():
    reports = [run_axiom(QEXT, a, FAST) for a in ax.Q_AXIOMS]
    assert [r.axiom for r in reports] == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
    assert all(r.passed for r in reports)
    assert all(r.model == "qext" for r in reports)


def test_q3_is_decided_by_subtract_on_every_model():
    # X has no predecessor: z + 1 = X needs a constant term z0 + 1 = 0
    report = run_axiom(POLYNAT, ax.Q_AXIOMS[2], FAST)
    assert (report.verdict, report.counterexample) == ("counterexample", {"x": ["0", "1"]})
    for model in (NAT, QEXT):
        assert run_axiom(model, ax.Q_AXIOMS[2], FAST).passed


@pytest.mark.parametrize("model", [NAT, POLYNAT, QEXT], ids=lambda m: m.name)
def test_subtract_hook_is_exact_on_the_box(model):
    # subtract(p, q) is some z with z + q == p, and None only when no z works
    for p in model.box:
        for q in model.box:
            z = model.subtract(p, q)
            if z is None:
                assert all(model.add(c, q) != p for c in model.box), (p, q)
            else:
                assert model.add(z, q) == p, (p, q, z)


def test_automorphism_verifies():
    report = run_axiom(QEXT, ax.AUTOMORPHISM, FAST)
    assert report.passed
    assert report.axiom == "AUTOMORPHISM"


def test_automorphism_rejects_a_map_that_is_no_involution():
    # both atoms to a0, every natural to itself: at the reported pair (a1, a0)
    # every clause holds but f(f(x)) == x, and that one clause must reject it
    collapse = dataclasses.replace(QEXT, automorphism=lambda x: A0 if type(x) is str else x)
    report = run_axiom(collapse, ax.AUTOMORPHISM)
    assert report.verdict == "counterexample"
    assert report.counterexample == {"x": "a1", "y": "a0"}
    assert report.samples == 54


def _automorphism_clauses(f, x, y):
    # AUTOMORPHISM's clauses on the naturals, in its order
    return [f(x + y) == f(x) + f(y), f(x * y) == f(x) * f(y), f(f(x)) == x,
            f(x + 1) == f(x) + 1, f(0) == 0, f(1) == 1]


def _six_to_seven(n):
    return 7 if n == 6 else n


@pytest.mark.parametrize("clause, box, f, pair", [
    (0, (3,), _six_to_seven, (3, 3)),  # f(3 + 3) = 7, while f(3 * 3) = 9
    (1, (2, 3), _six_to_seven, (2, 3)),  # f(2 * 3) = 7, while (2, 2) holds
    (2, (2,), lambda n: {2: 0, 3: 1, 4: 0}.get(n, n), (2, 2)),  # f(f(2)) = 0
    (3, (2,), lambda n: 5 if n == 3 else n, (2, 2)),  # f(2 + 1) = 5
], ids=["add", "mul", "involution", "successor"])
def test_automorphism_exits_at_each_clause(clause, box, f, pair):
    # the box's first failing assignment fails this clause and no other, so
    # the run exits at its `and`, and would report another pair without it
    report = run_axiom(dataclasses.replace(NAT, box=box, automorphism=f), ax.AUTOMORPHISM)
    assert report.verdict == "counterexample"
    assert report.counterexample == {"x": str(pair[0]), "y": str(pair[1])}
    clauses = _automorphism_clauses(f, *pair)
    assert [i for i, holds in enumerate(clauses) if not holds] == [clause]


def test_swap_is_an_involution_on_the_box():
    for x in QEXT.box:
        assert qext_swap(qext_swap(x)) == x


def test_q_axioms_hold_on_full_exhaustive_box():
    # independent of the engine: direct loops over the atoms plus a block of
    # standard elements, one assignment at a time
    box = list(range(12)) + [A0, A1]
    one = qext.ONE
    for x in box:
        assert add(x, one) != 0
        assert add(x, 0) == x
        assert mul(x, 0) == 0
        if x != 0:
            y = subtract(x, 1)
            assert y is not None and add(y, one) == x
        for y in box:
            if add(x, one) == add(y, one):
                assert x == y
            assert add(x, add(y, one)) == add(add(x, y), one)
            assert mul(x, add(y, one)) == add(mul(x, y), x)


def test_models_registry():
    assert set(MODELS) == {"nat", "polynat", "qext"}
    assert MODELS["nat"] is NAT


def test_run_axiom_on_an_empty_box_counts_only_samples():
    empty = dataclasses.replace(NAT, name="empty", box=())
    for samples in (0, 3):
        report = run_axiom(empty, ax.REGISTRY["A2"], SampleBudget(samples, seed=5))
        assert (report.verdict, report.samples) == ("pass", samples)


def test_run_axiom_accepts_custom_statements():
    squares_grow = ax.Axiom(
        "SQUARES_GROW", 1, "x <= x*x + 1", ("le",),
        lambda m, a: m.le(a[0], m.add(m.mul(a[0], a[0]), m.one)),
    )
    assert run_axiom(NAT, squares_grow, FAST).passed


def test_a_violation_that_does_not_reproduce_is_an_unstable_evaluation():
    # a counterexample is reported only once its assignment fails a second time
    verdicts = iter([False])
    flaky = ax.Axiom("FLAKY", 1, "fails once, then holds", (), lambda m, a: next(verdicts, True))
    with pytest.raises(RuntimeError, match=r"^unstable evaluation of FLAKY on \(0,\)$"):
        run_axiom(NAT, flaky, FAST)
