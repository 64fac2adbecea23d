"""Fuzz the CLI contract: every argv exits 0, 1 or 2 and raises nothing else.

Each case is one command with small valid arguments, then at most one
flag changed: set to the first value that a cost cap rejects given the
other arguments, set to a zero, negative, huge or non-numeric token, or
dropped.  A value exactly at a cap is admitted and can take about a
second, so no case draws one.
"""

import bisect
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from hkcert import bounds, cli, monomial, rationals, slab
from hkcert.cli import main

JUNK = st.sampled_from(["0", "-1", "-5/3", "9" * 60, "x", "", "1/0", "nan", "1,2"])


def small_int(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo, hi).map(str)


class Flag(NamedTuple):
    valid: st.SearchStrategy  # st.none() for a flag that takes no value
    past: Optional[Callable[[dict], list]] = None  # the first rejected values, given the other flags' values
    bad: st.SearchStrategy = JUNK


def past_grid_resolution(values: dict) -> list:
    d = int(values["--dim"])
    return [str(min(bounds._MAX_GRID_STEPS // d, bounds._MAX_GRID_WORK // d**3) + 1)]


def past_grid_dim(values: dict) -> list:
    res = int(values["--resolution"])
    # With res <= 100 the steps cap cannot bind below the dimension cap.
    over_work = (d for d in range(1, slab._MAX_DIM + 1) if d**3 * res > bounds._MAX_GRID_WORK)
    return [str(next(over_work, slab._MAX_DIM + 1))]


def past_case_dim(values: dict) -> list:
    e, case = int(values["--e"]), values["--case"]

    def unprintable(d):
        recursion = bounds._fixed_dimension_recursion(d, e, case)
        return recursion is not None and not cli._printable_radical(*recursion)

    return [str(next((d for d in range(2, slab._MAX_DIM + 1) if unprintable(d)), slab._MAX_DIM + 1))]


def past_iterations(values: dict) -> list:
    d, e, k, n = (int(values[flag]) for flag in ("--dim", "--e", "--k", "--n"))
    costly = bounds._MAX_POWER_BITS // (e * n).bit_length() + 1
    unprintable = bisect.bisect_left(range(costly), True, key=lambda i: not cli._printable_radical(d, e, k, n, i))
    return [str(min(costly, unprintable))]


def past_generator_files(values: dict) -> list:
    gens = monomial._MAX_GENERATORS
    wide = monomial._MAX_MINIMALIZE_WORK // gens**2 + 1
    return [
        f"{monomial._MAX_SCAN_ROWS + 1} 0\n0 1\n",
        "".join(f"{i} {gens - i}\n" for i in range(gens + 1)),
        (" ".join(["1"] * wide) + "\n") * gens,
    ]


DIM = Flag(small_int(1, 8), lambda values: [str(slab._MAX_DIM + 1)])
RATIONAL = Flag(
    st.one_of(st.fractions(0, 10, max_denominator=12).map(str), st.decimals(0, 10, places=2).map(str)),
    lambda values: [f"1e{rationals._MAX_EXPONENT + 1}"],
)
VALUATIONS = Flag(
    st.lists(st.fractions(0, 3, max_denominator=6).map(str), min_size=1, max_size=4).map(",".join),
    lambda values: [",".join(f"1/{i}" for i in range(1, bounds._MAX_VALUATIONS + 2))],
)
MULTIPLICITY = Flag(small_int(6, 12), RATIONAL.past)
GENERATOR_FILE = Flag(
    st.lists(st.integers(1, 4), min_size=1, max_size=3)
    .flatmap(lambda cs: st.lists(st.lists(st.integers(0, 4), min_size=len(cs), max_size=len(cs)), max_size=3).map(
        lambda mixed: [[c * (i == j) for j in range(len(cs))] for i, c in enumerate(cs)] + mixed))
    .map(lambda rows: "".join(" ".join(map(str, row)) + "\n" for row in rows)),
    past_generator_files,
    st.sampled_from(["", "# comment only\n", "1 x\n", "2 0\n0 2 1\n", "0 0\n", "-1 2\n0 1\n", "1.5 0\n0 2\n"]),
)
FROBENIUS_POWERS = Flag(st.sets(st.integers(1, 8), min_size=1, max_size=4).map(lambda qs: ",".join(map(str, sorted(qs)))))

# Argument sets by command; "bound --t" and the like name one of a command's flag modes.
COMMANDS = {
    "vol": {"--dim": DIM, "--s": RATIONAL},
    "md": {"--max": Flag(small_int(1, 40), lambda values: [str(cli._MAX_MD_ORDER + 1)])},
    "bound": {"--dim": DIM, "--e": RATIONAL, "--r": Flag(small_int(0, 16)), "--s": RATIONAL, "--target": RATIONAL},
    "bound --t": {"--dim": DIM, "--e": RATIONAL, "--t": VALUATIONS, "--s": RATIONAL},
    "bound --optimize": {
        "--dim": Flag(small_int(1, 8), past_grid_dim),
        "--e": RATIONAL,
        "--r": Flag(small_int(0, 16)),
        "--optimize": Flag(st.none()),
        "--resolution": Flag(small_int(1, 100), past_grid_resolution),
        "--target": RATIONAL,
    },
    "certify-interval": {
        "--dim": DIM,
        "--e-low": Flag(small_int(1, 30)),
        "--e-high": Flag(small_int(30, 60)),
        "--s": RATIONAL,
        "--target": RATIONAL,
    },
    "verify-tables": {
        "--dim": Flag(st.sampled_from(["5", "6"])),
        "--csv": Flag(st.just("out.csv"), bad=st.sampled_from(["", "missing/out.csv"])),
    },
    "quadric": {
        "--p": Flag(small_int(1, 200), lambda values: [str(bounds._MILLER_RABIN_LIMIT)]),
        "--d": Flag(st.sampled_from(["5", "6"])),
    },
    "radical --case": {
        "--dim": Flag(small_int(2, 8), past_case_dim),
        "--e": MULTIPLICITY,
        "--case": Flag(st.sampled_from(["minimal_gap", "general"])),
    },
    # k <= 4 keeps 3 <= k <= e - 2 for every drawn e, with k = e - 2 at e = 6.
    "radical": {
        "--dim": Flag(small_int(2, 8)),
        "--e": MULTIPLICITY,
        "--k": Flag(small_int(3, 4)),
        "--n": Flag(small_int(2, 6)),
        "--iterations": Flag(small_int(0, 50), past_iterations),
    },
    "monomial": {"--file": GENERATOR_FILE, "--q": FROBENIUS_POWERS},
}


@st.composite
def cases(draw):
    """(command, {flag: value}, whether a cap must reject it); a --file value is
    the file's text, a --csv value a name in the scratch directory."""
    mode = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[mode]
    values = {name: draw(flag.valid) for name, flag in flags.items()}
    name = draw(st.sampled_from(sorted(flags)))
    change = draw(st.sampled_from(["none", "past", "bad", "drop"]))
    past = change == "past" and flags[name].past is not None
    if past:
        values[name] = draw(st.sampled_from(flags[name].past(values)))
    elif change == "bad":
        values[name] = draw(flags[name].bad)
    elif change == "drop":
        del values[name]
    return mode.split()[0], values, past


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(case=cases())
def test_every_argv_exits_0_1_or_2(case, scratch):
    command, values, past = case
    argv = [command]
    for name, value in values.items():
        if name == "--file":
            (scratch / "generators.txt").write_text(value)
            value = str(scratch / "generators.txt")
        elif name == "--csv":
            value = str(scratch / value)
        argv += [name] if value is None else [name, value]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in ((2,) if past else (0, 1, 2)), argv
    if code == 2:
        assert out.getvalue() == "" and "error:" in err.getvalue(), argv
    else:
        assert err.getvalue() == "", argv
