"""Fuzzing ``cli.main`` in process: every input ends in exit 0, 1 or 2, never a traceback.

Three generators: argv lists (the six subcommands, known and unknown flags,
junk tokens, naturals of up to 40 digits, and handles one entry over
``MAX_LEN``); witness JSON fed to ``verify-witness -`` through a replaced
``sys.stdin`` (each type tag, with fields that are decimal strings, ints,
negatives, nested values, or missing); and well-formed witnesses, every
field a natural decimal string, some wider than the default int-str cap
of 4,300 digits, which must end in a verdict, exit 0 or 1, never exit 2.
A fourth property decodes codes ``pair(u, v) + d``, d in {-1, 0, 1}, with
u and v up to 3,000 bits, so that the square root recurses above its leaf,
and compares every printed entry with the remainder definition.
Each example must finish within a time cap.  ``--samples`` stays at most
50 or goes above ``MAX_SAMPLES``, where it exits 2 at once: in between,
the sampled phase's cost is the budget the caller asks for.  For the same
reason a well-formed witness keeps its k, i and kprime at most 12: a
verify's cost grows with them, within bounds set by the witness size.

Out of scope: cost in a code's *width*.  The length of a handle is bounded
by ``MAX_LEN``, but appending onto a code of some 100k digits still runs
for minutes through the unreduced recoding; that is a known defect,
listed among the open items of ROADMAP.md, and the other naturals stay at
40 digits.
"""

import contextlib
import io
import json
import math
import time
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqcode import cli
from seqcode._decimal import decimal_str
from seqcode.codec import pair

TIME_CAP_S = 2.0
FUZZ = settings(deadline=None, max_examples=60)

SUBCOMMANDS = ["encode", "decode", "append", "verify-witness", "check-axioms", "demo"]
WORDS = SUBCOMMANDS + [
    "--json", "--seed", "--len", "--w", "--x", "--model", "--include-derived",
    "--include-subtraction", "--help", "--frobnicate", "--jsonx", "-z", "--", "-",
    "nat", "polynat", "qext", "zpoly", "subtraction", "q-pairing",
]
naturals = st.integers(min_value=0, max_value=10**40 - 1)
# junk never starts with "-", so it cannot abbreviate --samples, and has no
# "/", so it cannot name a device file for verify-witness to open
junk = st.text(st.characters(blacklist_characters="/"), max_size=8).filter(
    lambda t: not t.startswith("-"))
token = st.one_of(st.sampled_from(WORDS), naturals.map(str),
                  st.integers(max_value=-1, min_value=-10**40).map(str), junk)
small = st.integers(min_value=0, max_value=cli.MAX_LEN + 1).map(str)
number = st.one_of(small, naturals.map(str))


def _flag(name, values):
    return values.map(lambda value: [name, value])


def _maybe(argv):
    return st.one_of(st.just([]), argv)


def _joined(*parts):
    return st.tuples(*parts).map(lambda lists: [t for part in lists for t in part])


as_json = _maybe(st.just(["--json"]))
sampling = _joined(as_json, _maybe(_flag("--seed", number)),
                   _maybe(_flag("--samples", st.integers(min_value=0, max_value=50).map(str))))
SHAPES = {
    "encode": st.lists(number, max_size=11),
    "decode": st.lists(number, min_size=2, max_size=2),
    "append": _joined(_flag("--len", small), _flag("--w", number), _flag("--x", number), as_json),
    "verify-witness": _joined(_maybe(st.just(["-"])), as_json),
    "check-axioms": _joined(
        _flag("--model", st.sampled_from(["nat", "polynat", "qext"])),
        st.lists(st.sampled_from(["--include-derived", "--include-subtraction"]), unique=True),
        sampling),
    "demo": _joined(st.sampled_from([["subtraction"], ["q-pairing"]]), sampling),
}


@st.composite
def argvs(draw):
    # a well-formed command line, then up to three tokens inserted or dropped
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command, *draw(SHAPES[command])]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(argv)))
        if draw(st.booleans()) or at == len(argv):
            argv.insert(at, draw(token))
        else:
            del argv[at]
    # an edit may leave a wide natural after --samples: up to MAX_SAMPLES, that
    # budget runs for as long as it asks
    assume(not any(t == "--samples" and n.isascii() and n.isdigit()
                   and 50 < int(n) <= cli.MAX_SAMPLES
                   for t, n in zip(argv, argv[1:])))
    return argv


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < TIME_CAP_S, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(argvs())
@example(["encode", *["1"] * (cli.MAX_LEN + 1)])
@example(["decode", str(cli.MAX_LEN + 1), "3"])
@example(["append", "--len", str(cli.MAX_LEN), "--w", "3", "--x", "1", "--json"])
@example(["check-axioms", "--model", "qext", "--include-derived", "--samples", "3"])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    _run(argv)


FIELDS = {
    "factor-inverse": ("kprime", "i", "z", "pprime", "qprime"),
    "product-inverse": ("k", "v", "i", "u", "p", "q"),
    "recode": ("u", "v", "vprime", "x", "k", "uprime"),
}
MISSING = object()
field_values = st.one_of(
    naturals.map(str),
    st.integers(min_value=0, max_value=12).map(str),
    st.integers(min_value=-10**40, max_value=10**40),
    st.integers(min_value=-10**40, max_value=-1).map(str),
    st.lists(naturals.map(str), max_size=2),
    st.dictionaries(st.text(max_size=3), naturals.map(str), max_size=2),
    st.sampled_from([None, True, 1.5, "", "+3", " 3", "1_0"]),
    st.just(MISSING),
)


@st.composite
def witness_texts(draw):
    tag = draw(st.sampled_from([*FIELDS, "mystery", MISSING]))
    obj = {} if tag is MISSING else {"type": tag}
    for name in FIELDS.get(tag, FIELDS["recode"]):
        value = draw(field_values)
        if value is not MISSING:
            obj[name] = value
    return json.dumps(draw(st.one_of(st.just(obj), st.lists(st.just(obj), max_size=1))))


@FUZZ
@given(witness_texts(), st.booleans())
@example('{"type":"factor-inverse","kprime":"1","i":"2","z":"0","pprime":"2","qprime":"1"}', False)
@example('{"type":"product-inverse","k":"1","v":"2","i":"3","u":"3","p":"5","q":"3"}', True)
def test_any_witness_json_exits_0_1_or_2_without_a_traceback(text, as_json):
    code, out, _ = _run(["verify-witness", "-", *["--json"] * as_json], stdin=text)
    if code != 2:  # a verdict is printed exactly when the witness parsed
        verdict = json.loads(out)["valid"] if as_json else out.endswith(": valid\n")
        assert verdict == (code == 0)


# naturals of every width: small, up to 40 digits, and past the int-str cap
wide_naturals = st.one_of(
    st.integers(min_value=0, max_value=12),
    naturals,
    st.integers(min_value=10**4300, max_value=10**5000),
)
SMALL_FIELDS = {"k", "i", "kprime"}


@st.composite
def well_formed_witnesses(draw):
    tag = draw(st.sampled_from(sorted(FIELDS)))
    obj = {"type": tag}
    for name in FIELDS[tag]:
        value = draw(st.integers(min_value=0, max_value=12) if name in SMALL_FIELDS
                     else wide_naturals)
        obj[name] = decimal_str(value)
    return obj


WIDE = 2**20000


@FUZZ
@given(well_formed_witnesses(), st.booleans())
@example({"type": "recode", "u": "5", "v": decimal_str(WIDE), "vprime": decimal_str(WIDE - 1),
          "x": "0", "k": "1", "uprime": "5"}, False)
@example({"type": "product-inverse", "k": "1", "v": decimal_str(WIDE + 1), "i": "3",
          "u": decimal_str(2 * WIDE), "p": "1", "q": "1"}, True)
@example({"type": "factor-inverse", "kprime": decimal_str(10**5000), "i": "5", "z": "1",
          "pprime": "1", "qprime": "1"}, False)
@example({"type": "recode", "u": "0", "v": "0", "vprime": decimal_str(WIDE),
          "x": "0", "k": "1", "uprime": "0"}, True)
def test_a_well_formed_witness_gets_a_verdict(obj, as_json):
    code, out, err = _run(["verify-witness", "-", *["--json"] * as_json], stdin=json.dumps(obj))
    assert code in (0, 1), err
    if as_json:
        assert json.loads(out) == {"type": obj["type"], "valid": code == 0}
    else:
        assert out == f"{obj['type']}: {'valid' if code == 0 else 'INVALID'}\n"


def _entries_by_definition(w, k):
    # the remainder definition, split by the stdlib root: a non-code reads as zeros
    s = math.isqrt(w)
    u = w - s * s
    return [u % (1 + (i + 1) * (s - u)) if u <= s else 0 for i in range(k)]


# widths first, as a bounded draw crowds at its top; v of 1,025 bits or more
# puts every code above the square root's leaf of 2,048 bits
wide_us = st.integers(min_value=0, max_value=3000).flatmap(lambda b: st.integers(0, 2**b))
wide_vs = st.integers(min_value=1025, max_value=3000).flatmap(
    lambda b: st.integers(2**(b - 1), 2**b - 1))


@FUZZ
@given(wide_us, wide_vs, st.sampled_from([-1, 0, 1]),
       st.integers(min_value=0, max_value=cli.MAX_LEN))
@example(2**3000 - 1, 2**2999, -1, 3)
@example(0, 2**3000 - 1, -1, 2)  # s*s - 1, the largest remainder at root s - 1
def test_decode_of_a_wide_code_or_its_neighbour_reads_the_definition(u, v, d, k):
    w = pair(u, v) + d
    assume(w >= 0)
    code, out, _ = _run(["decode", str(k), decimal_str(w)])
    assert code == 0
    assert json.loads(out) == [decimal_str(x) for x in _entries_by_definition(w, k)]
