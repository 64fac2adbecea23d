"""Each ``hkcert`` process builds the whole parser and imports only its subcommand's modules.

``cli.build_parser`` adds every subcommand of ``cli._COMMANDS``, and no
argument adder imports anything.  The tests here pin the parser's usage
outcomes (help and ``--version`` return 0, every other usage error 2
with empty stdout), that ``cli.main`` returns the code that
``python -m hkcert`` exits with, and which ``hkcert`` modules each
subcommand loads in a fresh interpreter.
"""

import ast
import subprocess
import sys

import pytest

import workloads
from hkcert import __version__, cli
from test_cli import child_env

COMMANDS = list(cli._COMMANDS)

# One valid argv per subcommand; below it, argvs with an invalid value, choice,
# list or flag combination, at least one per subcommand.
VALID = {
    "vol": ["vol", "--dim", "6", "--s", "3/2"],
    "md": ["md", "--max", "6"],
    "bound": ["bound", "--dim", "5", "--e", "5", "--r", "3", "--s", "7/5"],
    "verify-tables": ["verify-tables", "--dim", "5"],
    "quadric": ["quadric", "--p", "7", "--d", "5"],
    "radical": ["radical", "--dim", "4", "--case", "general"],
    "monomial": ["monomial", "--file", "ideal.txt", "--q", "1,2"],
    "certify-interval": ["certify-interval", "--dim", "6", "--e-low", "5", "--e-high", "9", "--s", "13/5",
                         "--target", "1.107"],
}
INVALID = [
    ["vol", "--dim", "x", "--s", "1"],
    ["vol", "--dim", "3", "--s", "half"],
    ["md", "--max", "x"],
    ["bound", "--dim", "5", "--e", "x", "--r", "3", "--s", "1"],
    ["bound", "--dim", "5", "--e", "5", "--t", "1,x", "--s", "1"],
    ["bound", "--dim", "5", "--e", "5", "--r", "3", "--t", "1", "--s", "1"],
    ["verify-tables", "--dim", "7"],
    ["quadric", "--p", "x", "--d", "5"],
    ["quadric", "--p", "7", "--d", "4"],
    ["radical", "--dim", "4", "--case", "bogus"],
    ["radical", "--dim", "4", "--k", "x"],
    ["monomial", "--file", "ideal.txt", "--q", "a"],
    ["certify-interval", "--dim", "6", "--e-low", "x", "--e-high", "9", "--s", "2", "--target", "1"],
]
ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["bogus"],  # the top level
    *([name, flag] for name in COMMANDS for flag in ("-h", "--help")),
    *([name] for name in COMMANDS),  # missing required arguments
    *([*argv, "extra"] for argv in VALID.values()),  # unrecognized argument, reported by the top level
    *INVALID,
    *(list(argv) for argv in workloads._USAGE_ERRORS),
]


def test_every_subcommand_has_cases():
    assert sorted(VALID) == sorted(COMMANDS)
    assert {argv[0] for argv in INVALID} == set(COMMANDS)


def outcome(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The usage-outcome test; its name is older than the one parser build, and
# it keeps that name so that its ids stay.
@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_subparser_prints_what_all_print(argv, capsys):
    """Help and --version return 0 on stdout; every other argv here returns 2 with empty stdout."""
    code, out, err = outcome(argv, capsys)
    if argv == ["--version"]:
        assert (code, out, err) == (0, f"hkcert {__version__}\n", "")
    elif argv[-1:] in (["-h"], ["--help"]):
        prog = " ".join(["hkcert", *argv[:-1]])
        assert (code, err) == (0, "") and out.startswith(f"usage: {prog} ")
        if prog == "hkcert":  # top-level help lists every subcommand with its help
            assert all(f"\n    {name} " in out for name in COMMANDS)
    else:
        assert (code, out) == (2, "") and err
        if argv == ["bogus"]:
            assert "invalid choice" in err


# One argv per kind of outcome, with its exit code.
OUTCOMES = [
    pytest.param(VALID["vol"], 0, id="pass"),
    pytest.param(["bound", "--dim", "5", "--e", "18", "--r", "32", "--s", "17/10", "--target", "1.197"], 1,
                 id="failed-comparison"),
    pytest.param(["md", "--max", "0"], 2, id="library-error"),
    pytest.param(INVALID[0], 2, id="argparse-error"),
    pytest.param(["-h"], 0, id="help"),
    pytest.param(["--version"], 0, id="version"),
    pytest.param([], 2, id="empty"),
    pytest.param(["bogus"], 2, id="unknown-command"),
]


@pytest.mark.parametrize("argv, code", OUTCOMES)
def test_main_returns_what_the_process_exits_with(argv, code, capsys, monkeypatch):
    # One help width for both: argparse reads COLUMNS before the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    result = subprocess.run([sys.executable, "-m", "hkcert", *argv], capture_output=True, text=True, env=child_env())
    assert result.returncode == code
    assert outcome(argv, capsys) == (code, result.stdout, result.stderr)


def test_one_parser_holds_every_subcommand(capsys, monkeypatch):
    command, = (action for action in cli.build_parser()._actions if action.dest == "command")
    assert list(command.choices) == COMMANDS
    # Without an argument, main reads the command line past the program name.
    monkeypatch.setattr(sys, "argv", ["hkcert", *VALID["vol"]])
    assert outcome(None, capsys) == (0, "241/15360 ≈ 0.0156\n", "")


# The hkcert modules each subcommand loads, past hkcert and hkcert.cli.
LOADS = {
    "vol": {"rationals", "slab"},
    "md": {"rationals", "series"},
    "bound": {"rationals", "slab", "bounds"},
    "verify-tables": {"rationals", "slab", "bounds", "series", "report", "tables"},
    "quadric": {"rationals", "slab", "bounds", "series"},
    "radical": {"rationals", "slab", "bounds"},
    "monomial": {"rationals", "monomial"},
    "certify-interval": {"rationals", "slab", "bounds", "report"},
}
# Imports that only some subcommands need; -S keeps site's own imports out.
HEAVY = ("csv", "typing", "pathlib")


@pytest.mark.parametrize("name", COMMANDS)
def test_subcommand_loads_only_its_modules(name, tmp_path):
    (tmp_path / "ideal.txt").write_text("2 0\n0 3\n")
    probe = (
        "import sys\n"
        "from hkcert.cli import main\n"
        f"code = main({VALID[name]!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'hkcert')\n"
        f"print(repr((code, loaded, [m for m in {HEAVY!r} if m in sys.modules])))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env(), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    code, loaded, heavy = ast.literal_eval(result.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted({"hkcert", "hkcert.cli"} | {f"hkcert.{module}" for module in LOADS[name]})
    assert "csv" not in heavy
    if name == "vol":
        assert heavy == []
