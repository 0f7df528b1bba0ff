"""Line-coverage gate over src/seqcode/, stdlib only.

Runs the Tier-1 suite in this process under the stdlib ``trace`` module and
exits 1, listing ``file:line``, when a line of ``src/seqcode/`` never ran or
when a test failed.  ``trace`` sees this process only, so the one exempt code
is what only ``python -m seqcode`` subprocesses run: ``__main__.py`` and the
body of ``if __name__ == "__main__":``.  Run it from the repository root:

    PYTHONPATH=src python tools/linecov.py

Hypothesis runs at seed 0, so a run repeats exactly.
"""

from __future__ import annotations

import ast
import dis
import sys
import trace
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
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    ran = {(Path(name).resolve(), line) for name, line in tracer.results().counts}
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
