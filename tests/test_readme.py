"""README.md's command-line examples, run through ``cli.main`` in process.

Every ``$ seqcode ...`` line in the "Command line" section is run, with a
trailing ``| head -N`` or ``| tail -N`` applied to its output, and the
result must be exactly the lines printed under it, so the examples cannot
drift from the code.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from seqcode import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
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
