"""Call counts from the stdlib profiler, looked up by the function itself.

``profiled(call, *args)`` runs ``call(*args)`` under one ``cProfile.Profile``
and returns its result together with the total calls, recursive ones
included, of everything the call ran::

    result, calls = profiled(seq_append, h, 99)
    assert calls[math.isqrt] == 1 and calls[witness._residues] == 2

A Python function is matched on its ``__code__``, so it is counted however a
module binds it, and a renamed or deleted one fails at the test's attribute
lookup instead of reading 0.  The builtins are matched on the profiler's
labels, such as ``<built-in method math.isqrt>``.  A function that never ran
reads 0.  Limits, measured on CPython 3.10.13 to 3.13.0:

- Ask it only for plain functions and for ``math.isqrt``, ``divmod`` and
  ``math.lcm``; anything else (a method, a class, a ``functools.cache``
  wrapper, another builtin) is a ``TypeError``, not a count.
- 3.13 counts generator resumes differently: for ``check-axioms --model
  nat``, ``checker._sample_nat`` reads 29,013 calls on 3.10.13 to 3.12.1
  and 29,000 on 3.13.0.  So do not pin the count of a generator.
- 3.12+ inlines list comprehensions (PEP 709): ``<listcomp>`` is a call of
  its own before 3.12 and no call from 3.12 on.
- On 3.12+ the profiler holds ``sys.monitoring.PROFILER_ID`` (2), the line
  gate ``tools/linecov.py`` holds ``COVERAGE_ID`` (1), and hypothesis's
  explain phase holds tool 3, so all three can run in one process; under
  the gate on 3.13.0 every count is the same.  A second profiler at once is
  a ``ValueError`` on 3.12+.
"""

import cProfile
import math
import types

_BUILTINS = {fn: f"<built-in method {fn.__self__.__name__}.{fn.__name__}>"
             for fn in (math.isqrt, divmod, math.lcm)}


class Calls:
    """Total calls per function of one profiled call, indexed by the function."""

    def __init__(self, profile: cProfile.Profile):
        # an entry's code is the code object of a Python function, else a label
        self._counts = {entry.code: entry.callcount for entry in profile.getstats()}

    def __getitem__(self, fn) -> int:
        if isinstance(fn, types.FunctionType):
            return self._counts.get(fn.__code__, 0)
        if isinstance(fn, types.BuiltinFunctionType) and fn in _BUILTINS:
            return self._counts.get(_BUILTINS[fn], 0)
        raise TypeError(f"count only plain functions and {', '.join(_BUILTINS.values())}, "
                        f"not {fn!r}")


def profiled(call, *args, **kwargs):
    """``(call(*args, **kwargs), its Calls)``, run under one ``cProfile.Profile``."""
    profile = cProfile.Profile()
    result = profile.runcall(call, *args, **kwargs)
    return result, Calls(profile)
