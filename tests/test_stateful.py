"""A state machine over the whole handle surface, against plain Python lists.

Each bundle entry is a handle, the list it should decode to, and whether
it was made from scratch (by ``seq_build`` or appends onto one of its
handles).  Rules build, append through the library and through in-process
``cli.main``, and plant handles no append made: a non-code w, which reads
as all zeros, and a foreign pair(u, v).  Every handle is checked when it
is made: it decodes to its list, the library and the CLI append agree, a
from-scratch handle is what ``seq_build`` makes of its list, and each
step's ``RecodeWitness``, rebuilt from the split codes, verifies while
every one-field tampering is judged as direct remainders judge it.

Handles hold at most 12 entries and entries stay at most 2**256, which
keeps this module to about 2 s of the tier-1 run.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule

from seqcode import cli
from seqcode._decimal import decimal_str
from seqcode.codec import SeqHandle, is_pair_code, pair, seq_append, seq_build, seq_decode, unpair
from seqcode.witness import RecodeWitness

MAX_ENTRIES = 12
naturals = st.one_of(st.integers(0, 3), st.integers(0, 2**64), st.integers(0, 2**256))


def _split(h: SeqHandle) -> tuple[int, int]:
    # the (u, v) an append starts from: (0, 0) for an empty handle or a non-code
    return unpair(h.w) if h.len and is_pair_code(h.w) else (0, 0)


def _holds(wit: RecodeWitness) -> bool:
    # the recode claim by direct remainders, independent of the witness code
    u, v, vprime, x, k, uprime = (wit.u, wit.v, wit.vprime, wit.x, wit.k, wit.uprime)
    if vprime < v or (k + 1) * vprime < x or vprime % math.lcm(*range(1, k + 1)):
        return False
    return (all(uprime % (1 + t * vprime) == u % (1 + t * v) for t in range(1, k + 1))
            and uprime % (1 + (k + 1) * vprime) == x)


def _check_step(h: SeqHandle, x: int, new: SeqHandle) -> None:
    (u, v), (uprime, vprime) = _split(h), unpair(new.w)
    fields = dict(u=u, v=v, vprime=vprime, x=x, k=h.len, uprime=uprime)
    assert RecodeWitness(**fields).verify()
    for name in fields:
        tampered = RecodeWitness(**{**fields, name: fields[name] + 1})
        assert tampered.verify() == _holds(tampered), name
        if name in ("x", "uprime"):  # x is planted at position k; u' reads x there
            assert not tampered.verify(), name


class HandleMachine(RuleBasedStateMachine):
    handles = Bundle("handles")

    def _keep(self, h: SeqHandle, xs: list, scratch: bool):
        assert seq_decode(h) == xs
        if scratch:
            assert seq_build(xs) == h
        return h, xs, scratch

    @initialize(target=handles)
    def empty(self):
        return self._keep(seq_build([]), [], True)

    @rule(target=handles, xs=st.lists(naturals, max_size=MAX_ENTRIES))
    def build(self, xs):
        return self._keep(seq_build(xs), xs, True)

    @rule(target=handles, k=st.integers(0, MAX_ENTRIES - 1), s=st.integers(1, 2**128), data=st.data())
    def non_code(self, k, s, data):
        # s*s + s < w <= s*s + 2*s: no pair code lies there
        w = s * s + s + data.draw(st.integers(1, s))
        assert not is_pair_code(w)
        return self._keep(SeqHandle(k, w), [0] * k, False)

    @rule(target=handles, k=st.integers(0, MAX_ENTRIES - 1), u=naturals, v=naturals)
    def foreign(self, k, u, v):
        # a pair no recode made; entry i is u mod 1 + (i+1)*v all the same
        return self._keep(SeqHandle(k, pair(u, v)), [u % (1 + (i + 1) * v) for i in range(k)], False)

    @rule(target=handles, entry=handles, x=naturals)
    def append(self, entry, x):
        h, xs, scratch = entry
        assume(h.len < MAX_ENTRIES)
        new = seq_append(h, x)
        _check_step(h, x, new)
        return self._keep(new, xs + [x], scratch)

    @rule(target=handles, entry=handles, x=naturals)
    def append_cli(self, entry, x):
        h, xs, scratch = entry
        assume(h.len < MAX_ENTRIES)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["append", "--len", decimal_str(h.len), "--w", decimal_str(h.w),
                               "--x", decimal_str(x), "--json"])
        assert status == cli.EXIT_OK
        printed = json.loads(out.getvalue())
        new = seq_append(h, x)
        assert printed == {**new.to_json(), "verified": True}
        _check_step(h, x, new)
        return self._keep(SeqHandle.from_json(printed), xs + [x], scratch)


HandleMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_handle_surface = HandleMachine.TestCase
