"""README drift guard: the "Command line" examples print what they show.

An example is an ``hkcert ...`` line followed by ``# `` lines.  Those
lines are literal stdout unless they contain `` -- ``, which marks a
description of the output rather than the output itself.
"""

import shlex
from pathlib import Path

import pytest

from hkcert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    examples = []
    for line in block.splitlines():
        if line.startswith("hkcert "):
            examples.append((line, []))
        elif line.startswith("# ") and examples:
            examples[-1][1].append(line[2:])
    return [(command, output) for command, output in examples if output and not any(" -- " in o for o in output)]


EXAMPLES = _examples()


def test_literal_examples_are_found():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == [
        "vol", "bound", "bound", "quadric", "radical", "radical",
    ]


@pytest.mark.parametrize(
    "command, output", EXAMPLES, ids=[f"{i}-{shlex.split(command)[1]}" for i, (command, _) in enumerate(EXAMPLES)]
)
def test_example_output_matches(command, output, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in output)
