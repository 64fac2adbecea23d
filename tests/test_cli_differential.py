"""Differential fuzz of printed bytes: every subcommand against a second path.

Each case draws valid arguments, runs ``cli.main`` in-process and hands
its stdout and exit code to ``oracles.check_cli``, which re-derives them
without hkcert: volumes and bounds from the Irwin-Hall sum, ``md`` from
the convolution recurrence for the zigzag numbers, the radical bounds by
iterating the one-step bound, colengths by lattice counts, the
``verify-tables`` text and CSV against the committed digests, and
``bound --optimize`` against the best grid point.  For
``certify-interval`` it re-derives every line but the notes: the apex,
the branch, the bound as min G over every integer of the interval, and
the target verdict; the ``notes:`` line must equal the reference prose
that the tests write from ``fraction_certify_interval``.

The draws aim at the edges: s at an integer, s < 1, d <= s < d + 1,
s >= d + 1, an interval around the apex, e_low = e_high, and a target
equal to the bound or certified bound (exit 0: the comparison is ``>=``).
Intervals are short because the reference evaluates G at each integer.
"""

import io
import json
from contextlib import redirect_stdout
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hkcert.cli import main
from hkcert.rationals import format_rational
from test_bounds import fraction_certify_interval, fraction_interval_notes

DIGESTS = json.loads((Path(oracles.__file__).parent / "data" / "table_digests.json").read_text())

# The differential cases of one subcommand: a 1 s deadline each, as the exit-code fuzz has.
fuzz = settings(max_examples=30, deadline=timedelta(seconds=1))


def run_and_check(command, values, flags=(), spec=None, csv_path=None):
    """Run ``hkcert command --flag=value ... flags`` in-process; ``oracles.check_cli`` must report nothing.

    "--flag=value", so that a negative value is not read as a flag.
    """
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, *(f"{flag}={value}" for flag, value in values.items()), *flags])
    args = [str(token) for item in values.items() for token in item] + list(flags)
    csv_text = csv_path.read_text() if csv_path is not None and csv_path.exists() else None
    spec = {"cmd": command, "args": args, **(spec or {})}
    assert oracles.check_cli(spec, code, out.getvalue(), csv_text, DIGESTS) == ("ok", None)
    return out.getvalue()


@st.composite
def slices(draw, d):
    b = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integer", "below 1", "from d to d + 1", "from d + 1", "any"]))
    if kind == "integer":
        return Fraction(draw(st.integers(0, d + 2)))
    if kind == "below 1":
        return Fraction(draw(st.integers(0, b - 1)), b)
    if kind == "from d to d + 1":
        return d + Fraction(draw(st.integers(0, b - 1)), b)
    if kind == "from d + 1":
        return d + 1 + Fraction(draw(st.integers(0, 3 * b)), b)
    return Fraction(draw(st.integers(1, d * b)), b)


def targets(bound):
    """The bound itself, its two neighbours at 10^-6, or any small rational."""
    return st.one_of(
        st.just(bound),
        st.sampled_from([bound - Fraction(1, 10**6), bound + Fraction(1, 10**6)]),
        st.fractions(-10, 10, max_denominator=1000),
    )


@st.composite
def certify_cases(draw):
    """(d, e_low, e_high, s, target) of a valid ``certify-interval`` call."""
    d = draw(st.integers(1, 8))
    s = draw(slices(d))
    apex = fraction_certify_interval(d, 1, 1, s).apex
    if apex is not None and apex < 10**4 and draw(st.booleans()):
        e_low = max(1, int(apex) - draw(st.integers(0, 4)))
    else:
        e_low = draw(st.integers(1, 40))
    e_high = e_low + draw(st.integers(0, 4))
    bound = fraction_certify_interval(d, e_low, e_high, s).certified_bound
    return d, e_low, e_high, s, draw(targets(bound))


@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(case=certify_cases())
# One case per branch, each with its target equal to the certified bound.
@example(case=(6, 5, 9, Fraction(13, 5), Fraction(249157, 225000)))  # apex-interior
@example(case=(6, 296, 786, Fraction(13, 10), Fraction(170500033, 90000000)))  # increasing
@example(case=(6, 8, 12, Fraction(13, 5), Fraction(11453, 15625)))  # decreasing
@example(case=(6, 2, 5, Fraction(1), Fraction(1, 360)))  # degenerate-linear-increasing
def test_certify_interval_prints_the_reference(case):
    d, e_low, e_high, s, target = case
    values = {"--dim": d, "--e-low": e_low, "--e-high": e_high, "--s": format_rational(s),
              "--target": format_rational(target)}
    out = run_and_check("certify-interval", values)
    notes = fraction_interval_notes(fraction_certify_interval(d, e_low, e_high, s), e_low, e_high)
    assert out.splitlines()[5] == f"notes: {notes}"


@fuzz
@given(d=st.integers(1, 8), data=st.data())
def test_vol_prints_the_reference(d, data):
    s = data.draw(st.one_of(slices(d), st.fractions(-3, 0, max_denominator=12)))
    run_and_check("vol", {"--dim": d, "--s": format_rational(s)})


@fuzz
@given(order=st.integers(1, 60))
def test_md_prints_the_reference(order):
    run_and_check("md", {"--max": order})


MULTIPLICITIES = st.integers(1, 40)


@fuzz
@given(d=st.integers(1, 8), e=MULTIPLICITIES, data=st.data())
def test_bound_prints_the_reference(d, e, data):
    s = data.draw(slices(d))
    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, 40))
        generators, valuations = {"--r": r}, [1] * r
    else:
        valuations = data.draw(st.lists(st.fractions(0, 3, max_denominator=6).filter(bool), min_size=1, max_size=4))
        generators = {"--t": ",".join(map(format_rational, valuations))}
    values = {"--dim": d, "--e": e, **generators, "--s": format_rational(s)}
    if data.draw(st.booleans()):
        target = data.draw(targets(oracles.volume_bound(d, e, s, valuations)))
        values["--target"] = format_rational(target)
    run_and_check("bound", values)


@fuzz
@given(d=st.integers(1, 6), e=MULTIPLICITIES, r=st.integers(0, 16), res=st.integers(2, 20))
def test_bound_optimize_prints_the_reference(d, e, r, res):
    run_and_check("bound", {"--dim": d, "--e": e, "--r": r, "--resolution": res}, ["--optimize"])


@fuzz
@given(p=st.sampled_from([3, 5, 7, 11, 13, 101, 7919, 999983]), d=st.sampled_from([5, 6]))
def test_quadric_prints_the_reference(p, d):
    run_and_check("quadric", {"--p": p, "--d": d})


@fuzz
@given(d=st.integers(2, 8), e=st.integers(6, 60), case=st.sampled_from(["minimal_gap", "general"]))
def test_radical_case_prints_the_reference(d, e, case):
    run_and_check("radical", {"--dim": d, "--e": e, "--case": case})


@fuzz
@given(d=st.integers(2, 6), e=st.integers(6, 20), data=st.data())
def test_radical_recursion_prints_the_reference(d, e, data):
    k = data.draw(st.integers(3, e - 2))
    n, iterations = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 6))
    run_and_check("radical", {"--dim": d, "--e": e, "--k": k, "--n": n, "--iterations": iterations})


@st.composite
def ideals(draw):
    """Pure powers x_i^c_i and up to three other nonzero generators, as exponent tuples."""
    cs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    pure = [tuple(c * (i == j) for j in range(len(cs))) for i, c in enumerate(cs)]
    row = st.tuples(*[st.integers(0, 4)] * len(cs)).filter(any)
    return pure + draw(st.lists(row, max_size=3))


@fuzz
@given(gens=ideals(), qs=st.sets(st.integers(1, 8), min_size=1, max_size=4))
def test_monomial_prints_the_reference(tmp_path_factory, gens, qs):
    path = tmp_path_factory.getbasetemp() / "differential.ideal"
    path.write_text("".join(" ".join(map(str, g)) + "\n" for g in gens))
    run_and_check("monomial", {"--file": path, "--q": ",".join(map(str, sorted(qs)))}, spec={"gens": gens})


@pytest.mark.parametrize("dim", [5, 6])
@pytest.mark.parametrize("csv", [False, True])
def test_verify_tables_prints_the_digests(dim, csv, tmp_path):
    csv_path = tmp_path / "rows.csv" if csv else None
    values = {"--dim": dim, **({"--csv": csv_path} if csv else {})}
    run_and_check("verify-tables", values, spec={"csv": "rows.csv"} if csv else {}, csv_path=csv_path)
