"""Line-coverage gate over src/seqcode/, stdlib only.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer
and exits 1, listing ``file:line``, when a line of ``src/seqcode/`` never ran
or when a test failed.  The tracer follows only frames whose code lies under
``src/seqcode/``, so pytest and hypothesis run untraced, and it keys lines by
full path.  It sees this process and its threads only, so the one exempt code
is what only ``python -m seqcode`` subprocesses run: ``__main__.py`` and the
body of ``if __name__ == "__main__":``.  Run it from the repository root:

    PYTHONPATH=src python tools/linecov.py

Hypothesis runs at seed 0, so a run repeats exactly.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
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

    ran: set[tuple[Path, int]] = set()
    paths: dict[str, Path | None] = {}  # co_filename -> its path if under SRC, else None

    def lines(frame, event, arg):
        if event == "line":
            ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        # the global tracer runs once per new frame; only frames of SRC get a line tracer
        name = frame.f_code.co_filename
        if name not in paths:
            path = Path(name).resolve()
            paths[name] = path if path.is_relative_to(SRC) else None
        return lines if paths[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
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
