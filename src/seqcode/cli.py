"""Command-line front end.

Subcommands: encode, decode, append, verify-witness, check-axioms, demo.
Big naturals cross this boundary as decimal strings only, all parsed by
one argparse type.  Each subcommand takes only the flags it reads: --json
where there is a text report to switch, --seed and --samples where there
is sampling.  The parser is built once per process and reused by every
``main`` call.  Output is byte-deterministic for a fixed command line and
seed.

Exit codes: 0 success (including expected counterexamples in demos),
1 failed verification, failed self-check (a witness or recoding that
missed its own contract, a RuntimeError) or unexpected axiom verdict,
2 malformed input, a handle longer than MAX_LEN entries or a --samples
above MAX_SAMPLES included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from seqcode import codec, witness
from seqcode._decimal import decimal_str, parse_decimal
from seqcode.models import checker, polynat
from seqcode.models.axioms import DERIVED_LAWS, SUBTRACTION

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the longest handle encode, decode and append take: their cost grows faster
# than k**2, and 48 entries of 64-bit values already code to ~101k digits
MAX_LEN = 48

# the most samples check-axioms and demo draw per statement: at it the costliest
# run (polynat, every statement) takes seconds, and a budget never runs unbounded
MAX_SAMPLES = 100_000


def natural(text: str) -> int:
    """argparse type for every natural on the command line.

    argparse turns its ValueError into "argument X: invalid natural value",
    a usage error with exit status 2.
    """
    return parse_decimal(text)


def _bounded(length: int) -> None:
    if length > MAX_LEN:
        raise ValueError(f"a handle holds at most MAX_LEN = {MAX_LEN} entries")


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _cmd_encode(args) -> int:
    _bounded(len(args.values))
    _print(codec.seq_build(args.values).to_json())
    return EXIT_OK


def _cmd_decode(args) -> int:
    _bounded(args.len)
    entries = codec.seq_decode(codec.SeqHandle(args.len, args.w))
    _print([decimal_str(x) for x in entries])
    return EXIT_OK


def _cmd_append(args) -> int:
    _bounded(args.len + 1)
    # verified reports the one contract check seq_append ran, over every
    # position: had it failed, seq_append would have raised (exit 1)
    handle = codec.seq_append(codec.SeqHandle(args.len, args.w), args.x)
    if args.json:
        _print({**handle.to_json(), "verified": True})
    else:  # w is formatted first: a failed conversion leaves stdout empty
        w = decimal_str(handle.w)
        print(f"len      {handle.len}")
        print(f"w        {w}")
        print("verified true")
    return EXIT_OK


def _cmd_verify_witness(args) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from None
    try:
        obj = json.loads(text)
        wit = witness.witness_from_json(obj)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed witness: {exc}") from None
    valid = wit.verify()
    if args.json:
        _print({"type": obj["type"], "valid": valid})
    else:
        print(f"{obj['type']}: {'valid' if valid else 'INVALID'}")
    return EXIT_OK if valid else EXIT_FAIL


def _expected_verdict(model: str, axiom: str) -> str:
    # the polynomial model has no subtraction; everything else must pass
    if model == "polynat" and axiom == "SUBTRACTION":
        return "counterexample"
    return "pass"


def _emit_report(report: checker.AxiomReport, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(report.to_json_line() + "\n")
        return
    line = f"{report.model:<8} {report.axiom:<16} {report.verdict:<15} samples={report.samples}"
    if report.counterexample is not None:
        parts = " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}"
                         for k, v in report.counterexample.items())
        line += f"  {parts}"
    print(line)


def _reports(args, model: checker.Model, statements: tuple) -> list[checker.AxiomReport]:
    # the budget and every statement are checked against the model before any
    # is run: a --samples above MAX_SAMPLES or a statement the model cannot
    # evaluate exits 2 at once, stdout empty
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples is at most MAX_SAMPLES = {MAX_SAMPLES}")
    for ax in statements:
        checker.require_hooks(model, ax)
    budget = checker.SampleBudget(samples=args.samples, seed=args.seed)
    return [checker.run_axiom(model, ax, budget) for ax in statements]


def _emit_reports(reports: list[checker.AxiomReport], as_json: bool) -> int:
    status = EXIT_OK
    for report in reports:
        _emit_report(report, as_json)
        if report.verdict != _expected_verdict(report.model, report.axiom):
            status = EXIT_FAIL
    return status


def _cmd_check_axioms(args) -> int:
    model = checker.MODELS[args.model]
    extra = args.include_derived + args.include_subtraction  # the statements each flag adds
    return _emit_reports(_reports(args, model, model.statements + extra), args.json)


def _cmd_demo_subtraction(args) -> int:
    # SUBTRACTION as check-axioms reports it on polynat and, as a control, on
    # nat; the pair is the polynat counterexample, which the checker reproduced
    report, control = (_reports(args, m, (SUBTRACTION,))[0] for m in (checker.POLYNAT, checker.NAT))
    if report.counterexample != {"x": ["1"], "y": ["0", "1"]}:  # x = 1, y = X
        raise RuntimeError(f"polynat SUBTRACTION reported {report.counterexample}, not 1, X")
    p, q = (polynat.from_json(v) for v in report.counterexample.values())
    if args.json:
        _print({
            "pair": report.counterexample,
            "order_holds": polynat.le(p, q),
            "solvable": polynat.subtract(q, p) is not None,
            "polynat_verdict": report.verdict,
            "nat_verdict": control.verdict,
        })
    else:
        print("model polynat: does x <= y guarantee some z with z + x = y?")
        print(f"  candidate pair: x = {polynat.show(p)}, y = {polynat.show(q)}")
        print(f"  order check:    {polynat.show(p)} <= {polynat.show(q)} holds")
        print("  solving z + 1 = X coefficient-wise: the constant term needs")
        print("  z0 + 1 = 0, impossible for nonnegative coefficients")
        _emit_report(report, False)
        _emit_report(control, False)
        print("conclusion: the polynomial model satisfies every listed semiring")
        print("axiom yet admits no subtraction, so predecessors need not exist.")
    ok = all(r.verdict == _expected_verdict(r.model, r.axiom) for r in (report, control))
    return EXIT_OK if ok else EXIT_FAIL


_COUNTING_NOTE = """\
counting argument (prose, not machine-checked): a pairing formula would
have to give the four atom pairs (a0,a0), (a0,a1), (a1,a0), (a1,a1) four
codes that decode uniquely.  The atom swap is an automorphism, so it sends
the code of one pair to the code of the swapped pair; for the four atom
pairs the swap permutes all four, so none of their codes may be a fixed
point.  But the swap moves only a0 and a1 themselves: two candidate codes
for four distinct pairs, so unique decoding is impossible.  Machine
checking above stops at the operation tables and the automorphism; the
counting step is this short text."""


def _cmd_demo_q_pairing(args) -> int:
    # the check-axioms --model qext reports, framed by a header and the note
    reports = _reports(args, checker.QEXT, checker.QEXT.statements)
    if args.json:
        return _emit_reports(reports, True)
    print("model qext: the naturals plus two absorbing atoms a0, a1")
    print("  a + x = a   n + a = a   n * a = a   a * 0 = 0   a * x = a (x != 0)")
    status = _emit_reports(reports, False)
    print(_COUNTING_NOTE)
    return status


def _cmd_demo(args) -> int:
    if args.which == "subtraction":
        return _cmd_demo_subtraction(args)
    return _cmd_demo_q_pairing(args)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=natural, default=checker.SampleBudget.seed, help="seed for sampled checks")
    sampling.add_argument("--samples", type=natural, default=checker.SampleBudget.samples,
                          help="random samples per checked statement")

    parser = argparse.ArgumentParser(
        prog="seqcode",
        description="sequence coding over big naturals, witness audit, and model checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode naturals into a handle")
    p.add_argument("values", nargs="*", type=natural, metavar="N", help="entries, decimal")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a handle")
    p.add_argument("len", type=natural, metavar="LEN", help="number of entries, decimal")
    p.add_argument("w", type=natural, metavar="W", help="sequence code, decimal")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("append", parents=[json_flag], help="append one entry to a handle")
    p.add_argument("--len", required=True, type=natural, help="current length, decimal")
    p.add_argument("--w", required=True, type=natural, help="current code, decimal")
    p.add_argument("--x", required=True, type=natural, help="entry to append, decimal")
    p.set_defaults(func=_cmd_append)

    p = sub.add_parser("verify-witness", parents=[json_flag],
                       help="re-check a JSON witness (file or - for stdin)")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_verify_witness)

    p = sub.add_parser("check-axioms", parents=[json_flag, sampling],
                       help="run axiom checks on a model")
    p.add_argument("--model", required=True, choices=sorted(checker.MODELS))
    p.add_argument("--include-derived", action="store_const", const=DERIVED_LAWS, default=(),
                   help="also check the derived order/cancellation laws")
    p.add_argument("--include-subtraction", action="store_const", const=(SUBTRACTION,), default=(),
                   help="also check the subtraction law")
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("demo", parents=[json_flag, sampling],
                       help="machine-checked countermodel demos")
    p.add_argument("which", choices=["subtraction", "q-pairing"])
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help; normalize the rest
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        raise
    except RuntimeError as exc:  # a self-check failed, before anything was printed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
