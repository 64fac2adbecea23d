"""README drift guard: the "Command line" examples run and print what they show.

An example is an ``hkcert ...`` line followed by ``# `` lines.  Those
lines are literal stdout unless they contain `` -- ``, which marks a
description of the output rather than the output itself.  Every example
with literal stdout must print exactly that; every other example must
at least run, from a directory holding the README's ``sq.ideal``, and
exit 0 or 1 (not 2, a usage error).
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
    return examples


def _is_literal(output):
    return output and not any(" -- " in o for o in output)


def _ideal_file_text():
    """The generator block that follows the README's "The ideal ... is:" sentence."""
    text = README.read_text()
    block = text[text.index("`(x^2, xy, y^2)` is:"):]
    block = block[block.index("```\n") + len("```\n"):]
    return block[:block.index("```")]


EXAMPLES = [(command, output) for command, output in _examples() if _is_literal(output)]
DESCRIBED = [command for command, output in _examples() if not _is_literal(output)]

# Case numbers are given once and never renumbered, so a case keeps its id
# when an example is added or moves between the two lists; examples past
# the numbered ones take the next free numbers.
EXAMPLE_CASES = [0, 1, 2, 7, 8, 3, 4, 5, 6]
DESCRIBED_CASES = [0, 3, 4, 5]


def _case_ids(cases, commands):
    cases = cases + list(range(max(cases) + 1, max(cases) + 1 + len(commands) - len(cases)))
    return [f"{case}-{shlex.split(command)[1]}" for case, command in zip(cases, commands)]


def test_literal_examples_are_found():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == [
        "vol", "bound", "bound", "bound", "bound", "quadric", "radical", "radical", "certify-interval",
    ]
    assert [shlex.split(command)[1] for command in DESCRIBED] == [
        "md", "monomial", "verify-tables", "verify-tables",
    ]


@pytest.mark.parametrize(
    "command, output", EXAMPLES, ids=_case_ids(EXAMPLE_CASES, [command for command, _ in EXAMPLES])
)
def test_example_output_matches(command, output, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in output)


@pytest.mark.parametrize(
    "command", DESCRIBED, ids=_case_ids(DESCRIBED_CASES, DESCRIBED)
)
def test_described_example_runs(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "sq.ideal").write_text(_ideal_file_text())
    monkeypatch.chdir(tmp_path)
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as exc:  # argparse rejects an unknown command or flag itself
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert captured.out
