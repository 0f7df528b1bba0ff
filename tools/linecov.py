"""Line-coverage gate over src/seqcode/, stdlib only, on CPython 3.12+.

Runs the Tier-1 suite in this process under ``sys.monitoring`` (PEP 669) and
exits 1, listing ``file:line``, when a line of ``src/seqcode/`` never ran or
when a test failed.  It holds the tool id ``COVERAGE_ID``: the first call of
each code object under ``src/seqcode/`` turns on that code's ``LINE`` events,
and every event reports once and is then disabled, so pytest and hypothesis
run unobserved and each line costs one callback.  Monitoring sees every
thread of this process, so the one exempt code is what only ``python -m
seqcode`` subprocesses run: ``__main__.py`` and the body of ``if __name__ ==
"__main__":``.  Run it from the repository root:

    PYTHONPATH=src python3.13 tools/linecov.py

Hypothesis runs at seed 0, so a run repeats exactly.  Below 3.12 there is no
``sys.monitoring``, and the gate exits 2.
"""

from __future__ import annotations

import ast
import dis
import platform
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seqcode"
EXEMPT_FILES = {"__main__.py"}


def executable_lines(path: Path) -> set[int]:
    """The lines the compiled module can run, less the bodies of its main guards."""
    source = path.read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: the module RESUME
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines -= set(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print(f"error: the line gate needs sys.monitoring (CPython 3.12+), "
              f"not Python {platform.python_version()}", file=sys.stderr)
        return 2
    import pytest

    monitoring, tool = sys.monitoring, sys.monitoring.COVERAGE_ID
    ran: set[tuple[Path, int]] = set()

    def on_start(code, offset):
        if Path(code.co_filename).resolve().is_relative_to(SRC):
            monitoring.set_local_events(tool, code, monitoring.events.LINE)
        return monitoring.DISABLE

    def on_line(code, line):
        ran.add((Path(code.co_filename).resolve(), line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "linecov")
    monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.PY_START)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    missing = [f"{path.relative_to(ROOT)}:{line}"
               for path in sorted(SRC.rglob("*.py")) if path.name not in EXEMPT_FILES
               for line in sorted(executable_lines(path)) if (path, line) not in ran]
    for where in missing:
        print(f"never ran: {where}")
    print(f"line coverage of {SRC.relative_to(ROOT)}: "
          f"{len(missing)} lines never ran; pytest exit status {int(status)}")
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
