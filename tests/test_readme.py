"""README.md's examples: the library quickstart and the command lines.

The "Library quickstart" block runs as a doctest.  Every ``$ seqcode ...``
line in the "Command line" section is run through ``cli.main`` in process,
with a trailing ``| head -N`` or ``| tail -N`` applied to its output, and
the result must be exactly the lines printed under it, so the examples
cannot drift from the code.
"""

import contextlib
import doctest
import io
import pathlib
import re
import shlex

import pytest

from seqcode import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quickstart_runs_as_a_doctest():
    block = re.search(r"```python\n(.*?)```", _section("Library quickstart"), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quickstart", str(README), 0)
    assert len(test.examples) >= 10
    report = io.StringIO()
    results = doctest.DocTestRunner().run(test, out=report.write)
    assert results.failed == 0, report.getvalue()


def _examples() -> list[tuple[str, list[str]]]:
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", _section("Command line"), re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif examples:
                examples[-1][1].append(line)
    return examples


EXAMPLES = _examples()


def test_the_command_line_section_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_command_line_example(command, expected):
    command, *pipe = command.split(" | ")
    program, *argv = shlex.split(command)
    assert program == "seqcode"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    lines = out.getvalue().splitlines()
    for stage in pipe:
        tool, count = re.fullmatch(r"(head|tail) -(\d+)", stage).groups()
        lines = lines[:int(count)] if tool == "head" else lines[-int(count):]
    assert lines == expected
