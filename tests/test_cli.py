"""End-to-end command-line behavior, including exit codes and determinism."""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from profiled import profiled  # tests/profiled.py

from seqcode import _decimal, cli, codec, witness
from seqcode._decimal import decimal_str
from seqcode.models import checker


def run_cli(*args, stdin=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "seqcode", *args],
        capture_output=True,
        input=stdin,
        timeout=timeout,
    )


def test_encode_decode_roundtrip():
    out = run_cli("encode", "5", "3")
    assert out.returncode == 0
    handle = json.loads(out.stdout)
    assert handle["len"] == "2"
    back = run_cli("decode", handle["len"], handle["w"])
    assert back.returncode == 0
    assert json.loads(back.stdout) == ["5", "3"]


def test_encode_empty():
    out = run_cli("encode")
    assert out.returncode == 0
    assert out.stdout == b'{"len":"0","w":"0"}\n'


def test_encode_single_entry_decodes_back():
    out = run_cli("encode", "7")
    handle = json.loads(out.stdout)
    assert codec.beta_total(int(handle["w"]), 0) == 7


def test_decode_fixed_values():
    assert run_cli("decode", "2", "5544").stdout == b'["5","3"]\n'
    assert run_cli("decode", "0", "99").stdout == b"[]\n"
    assert run_cli("decode", "1", "3").stdout == b'["0"]\n'


def test_big_entries_cross_as_decimal_strings():
    big = str(2**200 + 17)
    handle = json.loads(run_cli("encode", big, "0").stdout)
    assert json.loads(run_cli("decode", handle["len"], handle["w"]).stdout) == [big, "0"]


def test_codes_beyond_the_default_int_str_cap_roundtrip():
    # a dozen 64-bit entries push the code past 4300 decimal digits
    entries = [str(2**64 - 1 - i) for i in range(12)]
    out = run_cli("encode", *entries)
    assert out.returncode == 0
    handle = json.loads(out.stdout)
    assert len(handle["w"]) > 4300
    back = run_cli("decode", handle["len"], handle["w"])
    assert back.returncode == 0
    assert json.loads(back.stdout) == entries


def test_encode_leaves_the_int_str_cap_unchanged(capsys):
    cap = sys.get_int_max_str_digits()
    assert cli.main(["encode", *(str(2**64 - 1 - i) for i in range(12))]) == 0
    assert sys.get_int_max_str_digits() == cap
    w = json.loads(capsys.readouterr().out)["w"]
    assert len(w) > 4300


def test_wire_format_is_pinned(capsys):
    # golden outputs: any difference here is a wire-format change
    assert cli.main(["encode", "5", "3"]) == 0
    assert capsys.readouterr().out == '{"len":"2","w":"798336"}\n'
    assert cli.main(["append", "--len", "2", "--w", "5544", "--x", "9", "--json"]) == 0
    assert capsys.readouterr().out == '{"len":"3","w":"5056582949723315928","verified":true}\n'


def test_append_checks_its_step_once(capsys):
    # seq_append's checked recode is the one contract check: one square root
    # (the old code's split) and two residue families (old entries, new code)
    h = codec.seq_build([2**64 - 1 - i for i in range(8)])
    expected = codec.seq_append(h, 99).to_json()
    argv = ["append", "--len", "8", "--w", decimal_str(h.w), "--x", "99", "--json"]
    status, calls = profiled(cli.main, argv)
    assert status == 0
    assert json.loads(capsys.readouterr().out) == {**expected, "verified": True}
    assert calls[math.isqrt] == 1
    assert calls[witness._residues] == 2


@pytest.mark.parametrize("argv", [
    ["append", "--len", "2", "--w", "5544", "--x", "9"],
    ["append", "--len", "2", "--w", "5544", "--x", "9", "--json"],
    ["encode", "5", "3", "4"],
    # a code past the default int-str cap: the error still names its witness
    ["append", "--len", "16", "--w", decimal_str(codec.seq_build(range(2**64, 2**64 + 16)).w),
     "--x", "9"],
    # the second step keeps the base v = 4, so it resumes the level loop
    ["encode", "4", "1"],
])
def test_a_failed_self_check_exits_1(argv, monkeypatch, capsys):
    real = witness._pprime
    monkeypatch.setattr(witness, "_pprime", lambda *a: real(*a) + 1)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: recode failed its own contract: {")
    assert err.count("\n") == 1 and "Traceback" not in err


def _off_by(multiple):
    # the rebase rule onto a faulty step multiple(step) in place of the step
    def rebase(v, step, x):
        m = multiple(step)
        return ((max(v, x, 1) + m - 1) // m) * m
    return rebase


def _without_x(v, step, x):
    # the rebase rule with x dropped from max(v, x, 1): a base that may lie below x
    return ((max(v, 1) + step - 1) // step) * step


# faulty base rules: half the step is not divisible by 1..k; twice it recodes
# validly onto a base that is not the specified one; and without x the base
# stays a multiple of lcm(1..n) below a large entry, so only the base check's
# top <= v arm can fire
OFF_BASE_RULES = {"half-step": _off_by(lambda step: max(step // 2, 1)),
                  "double-step": _off_by(lambda step: 2 * step),
                  "drop-x": _without_x}


@pytest.mark.parametrize("rule, entries", [("half-step", range(1, 9)), ("double-step", range(1, 9)),
                                           ("drop-x", range(1000, 1008))],  # above lcm(1..8) = 840
                         ids=["half-step", "double-step", "drop-x"])
def test_a_build_off_the_closed_form_base_exits_1(rule, entries, monkeypatch, capsys):
    # the build's one base check names the base, an internal fault, not bad input
    monkeypatch.setattr(codec, "_rebase", OFF_BASE_RULES[rule])
    with pytest.raises(RuntimeError, match=f"^build base [0-9]+ is not the least multiple "
                                           fr"of lcm\(1..8\) at least {max(entries)}$"):
        codec.seq_build(entries)
    assert cli.main(["encode", *map(str, entries)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: build base ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("rule, x", [("half-step", 9), ("double-step", 9),
                                     ("drop-x", 3000)],  # above lcm(1..9) = 2520
                         ids=["half-step", "double-step", "drop-x"])
def test_an_append_off_the_closed_form_base_exits_1(rule, x, monkeypatch, capsys):
    # the same faulty base rules on an append: its one base check names the base
    h = codec.seq_build(range(1, 9))  # its base is lcm(1..8) = 840
    monkeypatch.setattr(codec, "_rebase", OFF_BASE_RULES[rule])
    with pytest.raises(RuntimeError, match=f"^append base [0-9]+ is not the least multiple "
                                           fr"of lcm\(1..9\) at least {max(840, x)}$"):
        codec.seq_append(h, x)
    assert cli.main(["append", "--len", "8", "--w", decimal_str(h.w), "--x", str(x)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: append base ")
    assert err.count("\n") == 1 and "Traceback" not in err


WIDE_W = decimal_str(codec.seq_build(range(2**64, 2**64 + 16)).w)  # ~32k bits


@pytest.mark.parametrize("argv", [["decode", "16", WIDE_W],
                                  ["append", "--len", "16", "--w", WIDE_W, "--x", "9"]],
                         ids=["decode", "append"])
def test_a_wrong_square_root_exits_1(argv, monkeypatch, capsys):
    # a leaf root one too large fails _sqrtrem's own check: no wrong decode
    real_isqrt = codec.isqrt
    monkeypatch.setattr(codec, "isqrt", lambda n: real_isqrt(n) + 1)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a square root failed its check")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decode", "16", WIDE_W],
    ["append", "--len", "16", "--w", WIDE_W, "--x", "9"],
    # a narrow split and recode, then a ~28k-bit code to print: text and --json
    ["append", "--len", "0", "--w", "0", "--x", decimal_str(2**14000)],
    ["append", "--len", "0", "--w", "0", "--x", decimal_str(2**14000), "--json"],
], ids=["decode", "append", "append-print", "append-print-json"])
def test_a_wrong_division_exits_1_before_any_output(argv, monkeypatch, capsys):
    # a 2n/1n step one off fails _divmod's own check: no wrong decode, and no
    # len line left on stdout by an append whose code then fails to print
    real = _decimal._div2n1n

    def div2n1n(a, b, n):
        q, r = real(a, b, n)
        return q + 1, r - b

    monkeypatch.setattr(_decimal, "_div2n1n", div2n1n)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a division failed its check")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_recursion_error_is_not_a_failed_self_check(monkeypatch):
    def too_deep(_):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(codec, "seq_build", too_deep)
    with pytest.raises(RecursionError):
        cli.main(["encode", "5"])


def test_append_verifies():
    out = run_cli("append", "--len", "0", "--w", "0", "--x", "7", "--json")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj == {"len": "1", "w": "203", "verified": True}


def test_parse_failures_exit_2():
    assert run_cli("encode", "12x").returncode == 2
    assert run_cli("decode", "-1", "3").returncode == 2
    assert run_cli("append", "--len", "0", "--w", "0", "--x", "1.5").returncode == 2


def test_verify_witness_valid_and_tampered(tmp_path):
    cert = witness.product_inverse(2, 6, 4)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cert.to_json()), encoding="utf-8")
    assert run_cli("verify-witness", str(good)).returncode == 0

    tampered = cert.to_json()
    tampered["q"] = str(int(tampered["q"]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    out = run_cli("verify-witness", str(bad))
    assert out.returncode == 1
    assert b"INVALID" in out.stdout


@pytest.mark.parametrize("target, reason", [
    ("missing", "cannot read "),
    ("directory", "cannot read "),
    ("not-utf-8", "'utf-8' codec can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf-8"])
def test_verify_witness_on_an_unreadable_file_exits_2(target, reason, tmp_path, capsys):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    elif target == "not-utf-8":
        path.write_bytes(b'{"type": "\xff"}')
    assert cli.main(["verify-witness", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {reason}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_factor_inverse_witness_crosses_the_wire_and_verifies():
    wire = str(witness.factor_inverse(3, 7, 5))
    assert wire == '{"type":"factor-inverse","kprime":"3","i":"7","z":"5","pprime":"319","qprime":"138"}'
    out = run_cli("verify-witness", "-", stdin=(wire + "\n").encode())
    assert (out.returncode, out.stdout) == (0, b"factor-inverse: valid\n")


def test_verify_witness_stdin_and_garbage():
    wit = witness.factor_inverse(1, 3, 1)
    out = run_cli("verify-witness", stdin=json.dumps(wit.to_json()).encode())
    assert out.returncode == 0
    assert run_cli("verify-witness", stdin=b"not json").returncode == 2
    assert run_cli("verify-witness", stdin=b'{"type":"mystery"}').returncode == 2


@pytest.mark.parametrize("obj", [
    {"type": "factor-inverse", "kprime": "1", "i": "2", "z": "-3", "pprime": "2", "qprime": "1"},
    {"type": "recode", "u": "0", "v": "0", "vprime": "-1", "x": "0", "k": "0", "uprime": "0"},
    {"type": "product-inverse", "k": "2", "v": "+6", "i": "4", "u": "7", "p": "1", "q": "0"},
    {"type": "factor-inverse", "kprime": 1, "i": "3", "z": "1", "pprime": "4", "qprime": "1"},
])
def test_verify_witness_rejects_non_naturals(obj, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["verify-witness", str(path)]) == 2
    assert "malformed witness" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"type":"product-inverse","k":"100000000000","v":"0","i":"100000000001","u":"1","p":"1","q":"0"}',
    '{"type":"recode","u":"0","v":"0","vprime":"0","x":"0","k":"100000000000","uprime":"0"}',
])
def test_verify_witness_cost_is_bounded_by_witness_size(text):
    # both are valid; a verify that loops k = 10**11 times would time out
    out = run_cli("verify-witness", stdin=text.encode(), timeout=10)
    assert out.returncode == 0
    assert out.stdout.endswith(b": valid\n")


def test_wide_product_certificate_is_rejected_quickly():
    # u = 2**2001 is far shorter than any product of 2000 factors 1 + t*v with
    # v = lcm(1..2000); building that product first took some 20 s
    obj = {"type": "product-inverse", "k": "2000", "v": decimal_str(witness.lcm_upto(2000)),
           "i": "2001", "u": decimal_str(2**2001), "p": "1", "q": "0"}
    out = run_cli("verify-witness", stdin=json.dumps(obj).encode(), timeout=10)
    assert out.returncode == 1
    assert out.stdout == b"product-inverse: INVALID\n"


def test_wide_recode_witness_is_rejected_quickly():
    # a divisor product of 2000 factors 1 + t*v with v = lcm(1..2000) would
    # run to millions of bits; u = 3 is read without building it
    v = witness.lcm_upto(2000)
    wit = witness.RecodeWitness(u=3, v=v, vprime=v, x=0, k=2000, uprime=3)
    out = run_cli("verify-witness", stdin=json.dumps(wit.to_json()).encode(), timeout=10)
    assert out.returncode == 1
    assert out.stdout == b"recode: INVALID\n"


WIDE = 2**20000  # some 6,000 digits, past the default int-str cap of 4,300


@pytest.mark.parametrize("obj", [
    {"type": "recode", "u": "5", "v": decimal_str(WIDE), "vprime": decimal_str(WIDE - 1),
     "x": "0", "k": "1", "uprime": "5"},
    {"type": "product-inverse", "k": "1", "v": decimal_str(WIDE + 1), "i": "3",
     "u": decimal_str(2 * WIDE), "p": "1", "q": "1"},
    {"type": "factor-inverse", "kprime": decimal_str(10**5000), "i": "5", "z": "1",
     "pprime": "1", "qprime": "1"},
], ids=lambda obj: obj["type"])
def test_a_wide_well_formed_witness_that_breaks_its_precondition_exits_1(obj, monkeypatch, capsys):
    # each precondition's message names these numbers; formatting them with
    # str() raised past the int-str cap, which exited 2 as malformed input
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    assert cli.main(["verify-witness", "-"]) == 1
    assert capsys.readouterr() == (f"{obj['type']}: INVALID\n", "")


@pytest.mark.parametrize("argv", [
    ["append", "--len", "100000", "--w", "3", "--x", "1"],
    ["decode", "100000000000", "3"],
    ["encode", *["1"] * 3000],
])
def test_handles_longer_than_max_len_exit_2_quickly(argv):
    # each of these ran for minutes before the length bound
    out = run_cli(*argv, timeout=10)
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr == f"error: a handle holds at most MAX_LEN = {cli.MAX_LEN} entries\n".encode()


def test_max_len_entries_are_admitted(capsys):
    n = cli.MAX_LEN
    assert cli.main(["encode", *["0"] * n]) == 0
    handle = json.loads(capsys.readouterr().out)
    assert handle["len"] == str(n)
    assert cli.main(["decode", str(n), handle["w"]]) == 0
    assert json.loads(capsys.readouterr().out) == ["0"] * n
    assert cli.main(["append", "--len", str(n - 1), "--w", "3", "--x", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    for argv in (["encode", *["0"] * (n + 1)], ["decode", str(n + 1), "3"],
                 ["append", "--len", str(n), "--w", "3", "--x", "1"]):
        assert cli.main(argv) == 2
        assert "MAX_LEN" in capsys.readouterr().err


def test_deeply_nested_witness_json_exits_2():
    out = run_cli("verify-witness", stdin=b"[" * 100000 + b"]" * 100000)
    assert out.returncode == 2
    assert b"malformed witness" in out.stderr
    assert b"Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["encode", "--json", "5"],
    ["decode", "--seed", "3", "2", "5544"],
    ["verify-witness", "--samples", "5"],
])
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_natural_names_the_argument(capsys):
    assert cli.main(["append", "--len", "0", "--w", "0", "--x", "-1"]) == 2
    assert "argument --x: invalid natural value: '-1'" in capsys.readouterr().err


def test_demo_q_pairing_json_is_the_qext_check(capsys):
    budget = ["--samples", "30", "--seed", "5", "--json"]
    assert cli.main(["demo", "q-pairing", *budget]) == 0
    demo = capsys.readouterr().out
    assert cli.main(["check-axioms", "--model", "qext", *budget]) == 0
    assert capsys.readouterr().out == demo
    assert demo.count("\n") == 8


@pytest.mark.parametrize("command", [["check-axioms", "--model", "qext"], ["demo", "q-pairing"]])
def test_json_reports_write_a_seed_past_the_int_str_cap(command, capsys):
    # json.dumps str()s an int, which raises past the int-str cap; the seed is written in full
    seed = "9" * 5000
    assert cli.main([*command, "--json", "--samples", "1", "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith(f',"seed":{seed}}}') for line in lines)


def test_negative_samples_exit_2():
    assert cli.main(["check-axioms", "--model", "nat", "--samples", "-5"]) == 2
    assert cli.main(["demo", "subtraction", "--samples", "-1"]) == 2


@pytest.mark.parametrize("samples", [cli.MAX_SAMPLES + 1, 10**30])
@pytest.mark.parametrize("command", [["check-axioms", "--model", "nat"],
                                     ["demo", "subtraction"], ["demo", "q-pairing"]])
def test_samples_above_max_samples_exit_2(capsys, command, samples):
    # 10**30 reached islice, which refuses a stop past sys.maxsize, and any
    # smaller budget ran for as long as it asked
    assert cli.main([*command, "--samples", str(samples), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --samples is at most MAX_SAMPLES = {cli.MAX_SAMPLES}\n"


def test_max_samples_is_admitted(capsys):
    assert cli.main(["demo", "subtraction", "--samples", str(cli.MAX_SAMPLES), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nat_verdict"] == "pass"


@pytest.mark.parametrize("seed", ["-3", "+3", " 3", "3.0", ""])
def test_seed_must_be_a_decimal_natural(seed):
    # Random(-3) draws what Random(3) draws, so a signed seed is malformed
    assert cli.main(["check-axioms", "--model", "nat", "--seed", seed]) == 2
    assert cli.main(["demo", "q-pairing", "--seed", seed]) == 2


def test_check_axioms_nat_passes():
    out = run_cli("check-axioms", "--model", "nat", "--samples", "50", "--seed", "7")
    assert out.returncode == 0
    assert out.stdout.count(b"pass") == 13


def test_check_axioms_polynat_with_subtraction():
    out = run_cli(
        "check-axioms", "--model", "polynat", "--samples", "50", "--seed", "1",
        "--include-derived", "--include-subtraction", "--json",
    )
    # the expected subtraction counterexample is not a failure
    assert out.returncode == 0
    lines = [json.loads(l) for l in out.stdout.splitlines()]
    assert len(lines) == 13 + 6 + 1
    by_axiom = {l["axiom"]: l for l in lines}
    assert by_axiom["SUBTRACTION"]["verdict"] == "counterexample"
    assert by_axiom["SUBTRACTION"]["counterexample"] == {"x": ["1"], "y": ["0", "1"]}
    assert all(l["verdict"] == "pass" for l in lines if l["axiom"] != "SUBTRACTION")


def test_check_axioms_qext():
    out = run_cli("check-axioms", "--model", "qext", "--samples", "50", "--json")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert [json.loads(l)["axiom"] for l in lines] == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7",
                                                       "AUTOMORPHISM"]
    assert all(l.count(b'"verdict":"pass"') == 1 for l in lines)


@pytest.mark.parametrize("flags, axiom", [
    (["--include-derived"], "LE_ANTISYM"),
    (["--include-subtraction"], "SUBTRACTION"),
    (["--include-derived", "--include-subtraction"], "LE_ANTISYM"),
])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_check_axioms_qext_rejects_statements_that_need_an_order(flags, axiom, as_json, capsys):
    # qext has no order, so these statements cannot be evaluated on it; every
    # statement is checked against the model before any is run
    argv = ["check-axioms", "--model", "qext", "--samples", "5", *flags, *as_json]
    status, calls = profiled(cli.main, argv)
    assert status == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: axiom {axiom} needs an order, but model qext has none\n"
    assert calls[checker.run_axiom] == 0


def test_check_axioms_deterministic_output():
    args = ("check-axioms", "--model", "polynat", "--seed", "42",
            "--samples", "200", "--json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


@pytest.mark.parametrize("args", [
    ("check-axioms", "--model", "qext", "--json", "--samples", "200", "--seed", "3"),
    ("demo", "q-pairing"),
], ids=["check-axioms", "q-pairing"])
def test_qext_output_does_not_depend_on_str_hashing(args):
    # qext's atoms are str tokens, and str hashes change with PYTHONHASHSEED
    runs = [subprocess.run([sys.executable, "-m", "seqcode", *args], capture_output=True,
                           timeout=300, env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != b""


def test_demo_subtraction_exits_zero():
    out = run_cli("demo", "subtraction", "--samples", "50")
    assert out.returncode == 0
    assert b"z0 + 1 = 0" in out.stdout


def test_demo_subtraction_text_is_pinned():
    # the whole report at the default budget, through the tuple functions that read and print the pair
    out = run_cli("demo", "subtraction")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "e4b130360c262728b57ac16fc277e5b836ebb58da41551375d56302c3ccf7154")


@pytest.mark.parametrize("model, verdict, counterexample", [
    ("polynat", "pass", None),  # no pair to explain: a failed self-check
    ("polynat", "counterexample", {"x": ["1"], "y": ["0", "0", "1"]}),
    ("nat", "counterexample", {"x": "1", "y": "0"}),  # the control fails
])
def test_demo_subtraction_exits_1_on_an_unexpected_report(
        monkeypatch, capsys, model, verdict, counterexample):
    real = checker.run_axiom

    def run_axiom(m, ax, budget):
        report = real(m, ax, budget)
        if m.name != model:
            return report
        return dataclasses.replace(report, verdict=verdict, counterexample=counterexample)

    monkeypatch.setattr(checker, "run_axiom", run_axiom)
    assert cli.main(["demo", "subtraction", "--samples", "5"]) == 1
    out, err = capsys.readouterr()
    if model == "polynat":  # the pair is checked before anything is printed
        assert (out, err) == ("", f"error: polynat SUBTRACTION reported {counterexample}, not 1, X\n")
    else:
        assert f"nat      SUBTRACTION      {verdict}" in out and err == ""


def test_demo_q_pairing_exits_zero():
    out = run_cli("demo", "q-pairing", "--samples", "50")
    assert out.returncode == 0
    assert b"AUTOMORPHISM" in out.stdout
    assert b"prose, not machine-checked" in out.stdout


def test_demo_q_pairing_text_frames_the_qext_reports(capsys):
    budget = ["--samples", "30", "--seed", "5"]
    assert cli.main(["check-axioms", "--model", "qext", *budget]) == 0
    reports = capsys.readouterr().out
    assert reports.count("\n") == 8
    assert cli.main(["demo", "q-pairing", *budget]) == 0
    assert capsys.readouterr().out == (
        "model qext: the naturals plus two absorbing atoms a0, a1\n"
        "  a + x = a   n + a = a   n * a = a   a * 0 = 0   a * x = a (x != 0)\n"
        + reports + cli._COUNTING_NOTE + "\n")


@pytest.mark.parametrize("command", [["check-axioms", "--model", "qext"], ["demo", "q-pairing"]])
def test_an_unexpected_qext_verdict_exits_1_after_every_report(command, monkeypatch, capsys):
    real = checker.run_axiom

    def run_axiom(m, ax, budget):
        report = real(m, ax, budget)
        return dataclasses.replace(report, verdict="counterexample") if ax.id == "Q3" else report

    monkeypatch.setattr(checker, "run_axiom", run_axiom)
    assert cli.main([*command, "--samples", "5"]) == 1
    out, err = capsys.readouterr()
    verdicts = [line.split()[1:3] for line in out.splitlines() if line.startswith("qext ")]
    assert verdicts == [[q.id, "counterexample" if q.id == "Q3" else "pass"]
                        for q in checker.QEXT.statements]
    assert err == ""


def test_demo_json_mode():
    # the polynat countermodel: 1 <= X holds, yet no z has z + 1 = X
    out = run_cli("demo", "subtraction", "--json")
    assert out.returncode == 0
    assert out.stdout == (b'{"pair":{"x":["1"],"y":["0","1"]},"order_holds":true,"solvable":false,'
                          b'"polynat_verdict":"counterexample","nat_verdict":"pass"}\n')


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2


def test_the_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    cert = witness.product_inverse(2, 6, 4).to_json()
    cert["q"] = str(int(cert["q"]) + 1)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert), encoding="utf-8")
    script = [
        (["encode", "12x"], 2),
        (["--help"], 0),
        (["encode", "--json", "5"], 2),
        (["encode", "5", "3"], 0),
        (["append", "--len", "2", "--w", "5544", "--x", "9", "--json"], 0),
        (["verify-witness", str(tampered)], 1),
        (["check-axioms", "--model", "qext", "--samples", "0", "--json"], 0),
    ]
    first = {}
    for argv, code in script + script[::-1] + script:
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        assert first.setdefault(tuple(argv), out) == out
    assert first[("encode", "5", "3")] == '{"len":"2","w":"798336"}\n'
    assert first[("verify-witness", str(tampered))] == "product-inverse: INVALID\n"
