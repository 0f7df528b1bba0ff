"""The line gate's own parts: which lines it expects to run, and its refusal below 3.12.

``tools/linecov.py`` is loaded by path.  Its ``main()`` runs the whole suite,
so it is called here only where ``sys.monitoring`` is missing and it must
refuse before it imports pytest.
"""

import importlib.util
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

_MODULE = '''\
import sys


def outer(n):
    def inner(m):
        return m + 1
    return inner(n)


class Box:
    size = 3


if __name__ == "__main__":
    print(outer(1))
    sys.exit(0)
'''


def test_executable_lines_keep_nested_and_class_bodies_and_drop_the_main_guard(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(_MODULE, encoding="utf-8")
    lines = linecov.executable_lines(path)
    assert 6 in lines  # the nested function's body
    assert 11 in lines  # the class body
    assert 14 in lines  # the guard's own test runs wherever the module is imported
    assert not lines & {15, 16}  # the guard's body
    assert {1, 4, 5, 7, 10} <= lines


@pytest.mark.skipif(hasattr(sys, "monitoring"), reason="main() would run a second suite")
def test_without_sys_monitoring_the_gate_exits_2_before_importing_pytest(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "pytest", None)  # an `import pytest` now raises
    assert linecov.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the line gate needs sys.monitoring")
    assert err.count("\n") == 1
