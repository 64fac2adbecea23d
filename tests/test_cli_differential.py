"""Differential fuzz of printed bytes: ``certify-interval`` against a second path.

Each case draws valid arguments, runs ``cli.main`` in-process and hands
its stdout and exit code to ``oracles.check_cli``, which re-derives every
line but the notes without hkcert: the apex, the branch, the bound as
min G over every integer of the interval, and the target verdict.  The
``notes:`` line must equal the reference prose that the tests write from
``fraction_certify_interval``.

The draws aim at the edges: s at an integer, s < 1, d <= s < d + 1,
s >= d + 1, an interval around the apex, e_low = e_high, and a target
equal to the certified bound (exit 0: the comparison is ``>=``).
Intervals are short because the reference evaluates G at each integer.
"""

import io
from contextlib import redirect_stdout
from datetime import timedelta
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import oracles
from hkcert.cli import main
from hkcert.rationals import format_rational
from test_bounds import fraction_certify_interval, fraction_interval_notes


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
    target = draw(st.one_of(
        st.just(bound),
        st.sampled_from([bound - Fraction(1, 10**6), bound + Fraction(1, 10**6)]),
        st.fractions(-10, 10, max_denominator=1000),
    ))
    return d, e_low, e_high, s, target


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
    out = io.StringIO()
    with redirect_stdout(out):
        # "--flag=value", so that a negative target is not read as a flag.
        code = main(["certify-interval", *(f"{flag}={value}" for flag, value in values.items())])
    spec = {"cmd": "certify-interval", "args": [str(token) for item in values.items() for token in item]}
    assert oracles.check_cli(spec, code, out.getvalue(), None, {}) == ("ok", None)
    notes = fraction_interval_notes(fraction_certify_interval(d, e_low, e_high, s), e_low, e_high)
    assert out.getvalue().splitlines()[5] == f"notes: {notes}"
