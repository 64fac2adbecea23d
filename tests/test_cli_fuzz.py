"""Fuzz the CLI contract: every argv exits 0, 1 or 2 and raises nothing else.

Each case is one command with small valid arguments, then at most one
flag changed: set to the first value that a cost cap or the print budget
rejects given the other arguments (for every integer flag, also a run of
4401 digits, past the input budget), set to a zero, negative, huge or
non-numeric token, or dropped.  A value exactly at a cap is admitted and
can take about a second, so no case draws one.
"""

import bisect
import io
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from hkcert import bounds, monomial, rationals, series, slab
from hkcert.cli import main

JUNK = st.sampled_from(["0", "-1", "-5/3", "9" * 60, "x", "", "1/0", "nan", "1,2"])


def small_int(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo, hi).map(str)


# A run of one digit more than the input budget, past every integer option.
LONG_RUN = "5" + "0" * rationals._MAX_DIGITS


class Flag(NamedTuple):
    valid: st.SearchStrategy  # st.none() for a flag that takes no value
    past: Optional[Callable[[dict], list]] = None  # the first rejected values, given the other flags' values
    bad: st.SearchStrategy = JUNK


def integer(valid: st.SearchStrategy, past: Callable[[dict], list] = lambda values: []) -> Flag:
    """An integer flag, whose rejected values also hold ``LONG_RUN``."""
    return Flag(valid, lambda values: [*past(values), LONG_RUN])


def past_grid_resolution(values: dict) -> list:
    d = int(values["--dim"])
    return [str(min(bounds._MAX_GRID_STEPS // d, bounds._MAX_GRID_WORK // d**3) + 1)]


def past_grid_dim(values: dict) -> list:
    res = int(values["--resolution"])
    # With res <= 100 the steps cap cannot bind below the dimension cap.
    over_work = (d for d in range(1, slab._MAX_DIM + 1) if d**3 * res > bounds._MAX_GRID_WORK)
    return [str(next(over_work, slab._MAX_DIM + 1))]


def refused(call: Callable[[], object]) -> bool:
    """Whether ``call`` raises ValueError, that is, a library check refuses its arguments."""
    try:
        call()
    except ValueError:
        return True
    return False


def past_case_dim(values: dict) -> list:
    # The first dimension that fixed_dimension_bound refuses: on the print
    # check before its power (general, from d = 57) or on the dimension cap.
    e, case = int(values["--e"]), values["--case"]
    dims = range(2, slab._MAX_DIM + 2)
    first = bisect.bisect_left(dims, True, key=lambda d: refused(lambda: bounds.fixed_dimension_bound(d, e, case)))
    return [str(dims[first])]


def past_iterations(values: dict) -> list:
    # The first depth whose checked terms the print check refuses; no power is built.
    d, e, k, n = (int(values[flag]) for flag in ("--dim", "--e", "--k", "--n"))
    depths = range(10**6)
    return [str(bisect.bisect_left(depths, True, key=lambda i: refused(lambda: bounds._radical_terms(d, e, k, n, i))))]


def past_generator_files(values: dict) -> list:
    gens = monomial._MAX_GENERATORS
    wide = monomial._MAX_MINIMALIZE_WORK // gens**2 + 1
    return [
        f"{monomial._MAX_SCAN_ROWS + 1} 0\n0 1\n",
        "".join(f"{i} {gens - i}\n" for i in range(gens + 1)),
        (" ".join(["1"] * wide) + "\n") * gens,
    ]


def past_slice(values: dict) -> list:
    # The first s = 10**-k whose volume is past the slab work budget.  It is
    # written 1e-k while k <= _MAX_DIGITS, which reaches the budget from
    # d = 10, and 0.0...01e-_MAX_DIGITS up to k = 2 * _MAX_DIGITS, which
    # reaches it from d = 5: for d <= 4 no parseable s is that long.
    d, most = int(values["--dim"]), rationals._MAX_DIGITS
    powers = range(2 * most + 1)
    k = bisect.bisect_left(powers, True, key=lambda k: d * (10**k).bit_length() > slab._MAX_SLAB_BITS)
    past = [f"1e-{k}" if k <= most else f"0.{'0' * (k - most - 1)}1e-{most}"] if k in powers else []
    return [f"1e{most + 1}", *past]


def past_valuations(values: dict) -> list:
    # One valuation more than the distinct-valuation cap, and, for s > 0, the
    # shortest list t_i = s - s*i/2^k, i = 1, 2, ..., whose evaluated volumes
    # (v_s and each v_{s*i/2^k}, about dim * k bits) sum past the slab work budget.
    too_many = ",".join(f"1/{i}" for i in range(1, bounds._MAX_VALUATIONS + 2))
    d, s = int(values["--dim"]), rationals.parse_rational(values["--s"])
    if s == 0:
        return [too_many]

    def size(x):
        return d * max(x.numerator, x.denominator).bit_length() if 0 < x < d else 0

    k, bits, valuations = 4096 // d, size(s), []
    while bits <= slab._MAX_SLAB_BITS:
        x = s * (len(valuations) + 1) / 2**k
        bits += size(x)
        valuations.append(str(s - x))
    return [too_many, ",".join(valuations)]


DIM = integer(small_int(1, 8), lambda values: [str(slab._MAX_DIM + 1)])
RATIONAL = Flag(
    st.one_of(st.fractions(0, 10, max_denominator=12).map(str), st.decimals(0, 10, places=2).map(str)),
    lambda values: [f"1e{rationals._MAX_DIGITS + 1}"],
)
# Targets at the print budget: 1e4299 has 4300 digits and prints, 1e4300
# parses but has one digit too many, and 1e4301 does not parse.
INSIDE_BUDGET, PAST_BUDGET = f"1e{rationals._MAX_DIGITS - 1}", f"1e{rationals._MAX_DIGITS}"
TARGET = Flag(st.one_of(RATIONAL.valid, st.just(INSIDE_BUDGET)), lambda values: [PAST_BUDGET, *RATIONAL.past(values)])
SLICE = Flag(RATIONAL.valid, past_slice)
VALUATIONS = Flag(
    st.lists(st.fractions(0, 3, max_denominator=6).map(str), min_size=1, max_size=4).map(",".join),
    past_valuations,
)
# bound's --e below 1 and radical's below 6 are refused by the library.
BOUND_MULTIPLICITY = integer(small_int(0, 10))
MULTIPLICITY = integer(small_int(6, 12))
GENERATOR_FILE = Flag(
    st.lists(st.integers(1, 4), min_size=1, max_size=3)
    .flatmap(lambda cs: st.lists(st.lists(st.integers(0, 4), min_size=len(cs), max_size=len(cs)), max_size=3).map(
        lambda mixed: [[c * (i == j) for j in range(len(cs))] for i, c in enumerate(cs)] + mixed))
    .map(lambda rows: "".join(" ".join(map(str, row)) + "\n" for row in rows)),
    past_generator_files,
    st.sampled_from(["", "# comment only\n", "1 x\n", "2 0\n0 2 1\n", "0 0\n", "-1 2\n0 1\n", "1.5 0\n0 2\n"]),
)
FROBENIUS_POWERS = Flag(
    st.sets(st.integers(1, 8), min_size=1, max_size=4).map(lambda qs: ",".join(map(str, sorted(qs)))),
    lambda values: [f"1,{LONG_RUN}"],
)

# Argument sets by command; "bound --t" and the like name one of a command's flag modes.
COMMANDS = {
    "vol": {"--dim": DIM, "--s": SLICE},
    "md": {"--max": integer(small_int(1, 40), lambda values: [str(series._MAX_ORDER + 1)])},
    "bound": {"--dim": DIM, "--e": BOUND_MULTIPLICITY, "--r": integer(small_int(0, 16)), "--s": SLICE, "--target": TARGET},
    "bound --t": {"--dim": DIM, "--e": BOUND_MULTIPLICITY, "--t": VALUATIONS, "--s": SLICE},
    "bound --optimize": {
        "--dim": integer(small_int(1, 8), past_grid_dim),
        "--e": BOUND_MULTIPLICITY,
        "--r": integer(small_int(0, 16)),
        "--optimize": Flag(st.none()),
        "--resolution": integer(small_int(2, 100), past_grid_resolution),
        "--target": TARGET,
    },
    "certify-interval": {
        "--dim": DIM,
        "--e-low": integer(small_int(1, 30)),
        "--e-high": integer(small_int(30, 60)),
        "--s": SLICE,
        "--target": TARGET,
    },
    "verify-tables": {
        "--dim": integer(st.sampled_from(["5", "6"])),
        "--csv": Flag(st.just("out.csv"), bad=st.sampled_from(["", "missing/out.csv"])),
    },
    "quadric": {
        "--p": integer(small_int(1, 200), lambda values: [str(bounds._MILLER_RABIN_LIMIT)]),
        "--d": integer(st.sampled_from(["5", "6"])),
    },
    "radical --case": {
        "--dim": integer(small_int(2, 8), past_case_dim),
        "--e": MULTIPLICITY,
        "--case": Flag(st.sampled_from(["minimal_gap", "general"])),
    },
    # k <= 4 keeps 3 <= k <= e - 2 for every drawn e, with k = e - 2 at e = 6.
    "radical": {
        "--dim": integer(small_int(2, 8)),
        "--e": MULTIPLICITY,
        "--k": integer(small_int(3, 4)),
        "--n": integer(small_int(2, 6)),
        "--iterations": integer(small_int(0, 50), past_iterations),
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
    code, out, err = run(argv)
    assert code in ((2,) if past else (0, 1, 2)), argv
    if code == 2:
        assert out == "" and "error:" in err, argv
    else:
        assert err == "", argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=timedelta(seconds=1))
@given(mode=st.sampled_from(["bound", "certify-interval"]), data=st.data())
def test_target_on_both_sides_of_the_print_budget(mode, data):
    # The same valid arguments with the target just inside the budget and
    # just past it: the first prints the target line and fails, the second
    # exits 2 on the budget and prints nothing.  An error from another
    # argument (bound's --e below 1) is the same for both targets.
    values = {name: data.draw(flag.valid) for name, flag in COMMANDS[mode].items() if name != "--target"}
    argv = [mode, *(token for pair in values.items() for token in pair), "--target"]
    inside, past = run([*argv, INSIDE_BUDGET]), run([*argv, PAST_BUDGET])
    if inside[0] == 2:
        assert past == inside, argv
    else:
        assert inside[0] == 1 and inside[1].endswith(f"target: {10**(rationals._MAX_DIGITS - 1)} -> FAIL\n"), argv
        budget = f"error: a number of more than {rationals._MAX_DIGITS} digits is past the print budget\n"
        assert past == (2, "", budget), argv
