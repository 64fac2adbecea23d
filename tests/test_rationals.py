import argparse
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hkcert import MonomialIdeal, cli, rationals as rationals_module
from hkcert.bounds import (
    certify_interval,
    fixed_dimension_bound,
    optimize_slice,
    quadric_ehk,
    radical_recursion_bound,
    volume_lower_bound,
)
from hkcert.monomial import ehk_estimate, frobenius_colength, mixed_colength, parse_generators
from hkcert.series import conjecture_threshold, zigzag_coeffs
from hkcert.slab import vol_slab
from hkcert.tables import verify_tables
from hkcert.rationals import (
    decimal_render,
    format_rational,
    parse_rational,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


@pytest.mark.parametrize(
    "x, digits, expected",
    [
        (Fraction(781, 720), 4, "1.0847"),
        (Fraction(1, 2), 3, "0.500"),
        (Fraction(137, 120), 4, "1.1416"),
        (Fraction(241, 15360), 4, "0.0156"),
        (Fraction(-1, 3), 2, "-0.34"),
        (Fraction(5), 1, "5.0"),
    ],
)
def test_decimal_render(x, digits, expected):
    assert decimal_render(x, digits) == expected


def test_decimal_render_rejects_zero_digits():
    with pytest.raises(ValueError):
        decimal_render(Fraction(1, 2), 0)


def test_decimal_render_stays_in_the_print_budget():
    # Both parts up to 4300 digits print; a whole part of 4301 digits is
    # refused with format_rational's message, whatever the int-to-str limit.
    assert decimal_render(Fraction(1, 3), 4300) == "0." + "3" * 4300
    assert decimal_render(Fraction(10**4300 - 1, 1), 4) == "9" * 4300 + ".0000"
    assert decimal_render(Fraction(10**4300, 3), 4) == "3" * 4300 + ".3333"
    assert decimal_render(-Fraction(10**4300 - 1, 3), 4) == "-" + "3" * 4300 + ".0000"
    for x in (Fraction(10**4301, 3), Fraction(-10**4300, 1)):
        with pytest.raises(ValueError, match="^a number of more than 4300 digits is past the print budget$"):
            decimal_render(x, 4)


@given(x=rationals, digits=st.integers(min_value=1, max_value=12))
def test_decimal_render_truncates_downward(x, digits):
    rendered = Fraction(decimal_render(x, digits))
    assert rendered <= x
    assert x - rendered < Fraction(1, 10**digits)


@given(a=rationals, b=rationals)
def test_exact_roundtrip(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@pytest.mark.parametrize(
    "x, expected",
    [(Fraction(3, 2), "3/2"), (Fraction(4, 2), "2"), (Fraction(-5, 10), "-1/2")],
)
def test_format_rational(x, expected):
    assert format_rational(x) == expected


@pytest.mark.parametrize("text, expected", [("83/25", Fraction(83, 25)), ("3.32", Fraction(83, 25)), ("7", Fraction(7))])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


def test_parse_rational_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational("three halves")


def test_parse_rational_caps_decimal_exponent(monkeypatch):
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational(" -2E-4300 ") == Fraction(-2, 10**4300)
    assert parse_rational("3.32") == parse_rational("83/25") == Fraction(83, 25)
    # Rejected before the power of ten is built.
    monkeypatch.setattr(rationals_module, "Fraction", lambda *a: pytest.fail("literal converted"))
    for text in ("1e4301", "1e-10000000", "-2.5E+4301", "1e100000000"):
        message = f"decimal exponent must be at most 4300 in absolute value, got '{text}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_rational(text)


RUN_ERROR = "^a run of more than 4300 digits is past the input budget$"


@pytest.mark.parametrize("text", [
    "9" * 4300, "1_" * 4299 + "1", f"{'7' * 4300}/{'3' * 4300}", f"{'1' * 4300}.{'2' * 4300}e-{'0' * 4296}1", "12 x 34",
], ids=["4300", "4300-underscored", "p/q", "decimal", "short"])
def test_check_digit_runs_admits_runs_of_4300_digits(text):
    rationals_module._check_digit_runs(text)


@pytest.mark.parametrize("text", [
    "9" * 4301, "1_" * 4300 + "1", f"1/{'3' * 4301}", f"1.{'0' * 4301}", f"1e-{'0' * 4301}", "\u0665" * 4301, f"x {'0' * 10**5} y",
], ids=["4301", "4301-underscored", "denominator", "decimals", "exponent", "arabic-indic", "100000"])
def test_check_digit_runs_rejects_longer_runs(text):
    with pytest.raises(ValueError, match=RUN_ERROR):
        rationals_module._check_digit_runs(text)


@pytest.fixture(params=[4300, 0], ids=["default-limit", "no-limit"])
def int_max_str_digits(request):
    """Run the test under Python's default int-to-str limit and with the limit off."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield
    sys.set_int_max_str_digits(old)


LONG_RUN = "5" + "0" * 4400


@pytest.mark.parametrize("parse", [
    pytest.param(lambda: parse_rational(LONG_RUN), id="parse_rational"),
    pytest.param(lambda: parse_rational(f"1/{LONG_RUN}"), id="parse_rational-denominator"),
    pytest.param(lambda: cli._int_list(f"2,{LONG_RUN}"), id="cli._int_list"),
    pytest.param(lambda: rationals_module._parse_integer(LONG_RUN), id="_parse_integer"),
    pytest.param(lambda: cli._int(f" -{LONG_RUN} "), id="cli._int"),
    pytest.param(lambda: parse_generators(f"# x\n{LONG_RUN} 0\n0 1\n"), id="parse_generators"),
])
def test_digit_runs_are_refused_under_any_int_limit(parse, int_max_str_digits, monkeypatch):
    # Refused before int() or Fraction() reads the run, so the message is the
    # same with Python's own limit on or off.
    monkeypatch.setattr(rationals_module, "Fraction", lambda *a: pytest.fail("literal converted"))
    with pytest.raises((ValueError, argparse.ArgumentTypeError), match="a run of more than 4300 digits is past the input budget$"):
        parse()


# Letters, signs, points, slashes, underscores, ASCII and Unicode spaces, and
# decimal digits of every script.
INTEGER_TEXTS = st.text(st.one_of(st.sampled_from("0123456789+-_ ./\t\u3000aeEx"), st.characters(categories=["Nd"])),
                        max_size=8)


@given(text=INTEGER_TEXTS)
def test_parse_integer_admits_exactly_what_int_admits(text):
    try:
        expected = int(text)
    except ValueError:
        with pytest.raises(ValueError, match=f"^not an integer literal: {re.escape(repr(text))}$"):
            rationals_module._parse_integer(text)
    else:
        assert rationals_module._parse_integer(text) == expected


BUDGET = 10**4300  # B: the least integer of more than 4300 digits


@pytest.mark.parametrize("x", [
    BUDGET - 1, 1 - BUDGET, Fraction(1, BUDGET - 1), Fraction(BUDGET - 1, 3), 2**12900 - 1, 2**12900, Fraction(7, 2**14284),
], ids=["B-1", "1-B", "1/(B-1)", "(B-1)/3", "2^12900-1", "2^12900", "7/2^14284"])
def test_format_rational_prints_up_to_4300_digits(x):
    # 2**12900 - 1, of 12900 bits, is the largest part that skips the
    # comparison with 10**4300; 2**12900 and 2**14284 take it.
    assert format_rational(x) == str(x)


@pytest.mark.parametrize("x", [
    BUDGET, -BUDGET, Fraction(1, BUDGET), Fraction(BUDGET + 1, 3), Fraction(-3, BUDGET + 1), 2**14285,
], ids=["B", "-B", "1/B", "(B+1)/3", "-3/(B+1)", "2^14285"])
def test_format_rational_rejects_more_than_4300_digits(x):
    with pytest.raises(ValueError, match="^a number of more than 4300 digits is past the print budget$"):
        format_rational(x)


def test_format_rational_reads_the_budget_when_called(monkeypatch):
    monkeypatch.setattr(rationals_module, "_MAX_DIGITS", 3)
    assert format_rational(Fraction(-999, 998)) == "-999/998"
    with pytest.raises(ValueError, match="^a number of more than 3 digits is past the print budget$"):
        format_rational(Fraction(1, 1000))



_IDEAL = MonomialIdeal(2, [(2, 0), (0, 3)])

# The integer parameters, which go through rationals._integer, as (call,
# parameter, an integer it accepts): the call puts the value x in the
# parameter's place.
INTEGER_PARAMETERS = [
    pytest.param(lambda x: radical_recursion_bound(3, 6, x, 2, 3), "k", 4, id="radical_recursion_bound-k"),
    pytest.param(lambda x: radical_recursion_bound(3, 6, 4, x, 3), "n", 2, id="radical_recursion_bound-n"),
    pytest.param(lambda x: radical_recursion_bound(3, 6, 4, 2, x), "iterations", 3,
                 id="radical_recursion_bound-iterations"),
    pytest.param(lambda x: radical_recursion_bound(3, x, 4, 2, 3), "e", 6, id="radical_recursion_bound-e"),
    pytest.param(lambda x: fixed_dimension_bound(3, x, "general"), "e", 6, id="fixed_dimension_bound-e"),
    pytest.param(lambda x: volume_lower_bound(5, 5, 2, r=x), "r", 3, id="volume_lower_bound-r"),
    pytest.param(lambda x: frobenius_colength(_IDEAL, x), "q", 2, id="frobenius_colength-q"),
    pytest.param(lambda x: mixed_colength(_IDEAL, Fraction(3, 2), x), "q", 4, id="mixed_colength-q"),
    pytest.param(lambda x: ehk_estimate(_IDEAL, [1, x]), "q", 2, id="ehk_estimate-q"),
    pytest.param(lambda x: quadric_ehk(x, 5), "p", 7, id="quadric_ehk-p"),
    pytest.param(lambda x: quadric_ehk(7, x), "d", 5, id="quadric_ehk-d"),
    pytest.param(lambda x: vol_slab(x, Fraction(1, 2)), "d", 3, id="vol_slab-d"),
    pytest.param(lambda x: volume_lower_bound(x, 5, Fraction(7, 5), r=3), "d", 5, id="volume_lower_bound-d"),
    pytest.param(lambda x: optimize_slice(x, 5, 3, 10), "d", 5, id="optimize_slice-d"),
    pytest.param(lambda x: optimize_slice(5, 5, 3, x), "grid_resolution", 10, id="optimize_slice-grid_resolution"),
    pytest.param(lambda x: certify_interval(x, 5, 9, Fraction(13, 5)), "d", 6, id="certify_interval-d"),
    pytest.param(lambda x: conjecture_threshold(x), "d", 6, id="conjecture_threshold-d"),
    pytest.param(lambda x: zigzag_coeffs(x), "order", 6, id="zigzag_coeffs-order"),
    pytest.param(lambda x: fixed_dimension_bound(x, 6, "general"), "d", 6, id="fixed_dimension_bound-d"),
    pytest.param(lambda x: radical_recursion_bound(x, 6, 3, 2, 3), "d", 3, id="radical_recursion_bound-d"),
    pytest.param(lambda x: verify_tables(x), "dim", 5, id="verify_tables-dim"),
    pytest.param(lambda x: MonomialIdeal(x, [(2, 0), (0, 3)]), "num_vars", 2, id="MonomialIdeal-num_vars"),
    pytest.param(lambda x: decimal_render(Fraction(1, 3), x), "digits", 4, id="decimal_render-digits"),
]


@pytest.mark.parametrize("call, name, exact", INTEGER_PARAMETERS)
def test_integer_inputs_are_integers_or_rejected(call, name, exact):
    # An integral Fraction counts as its int; any other Fraction is refused by
    # name, where it used to reach the arithmetic (a float q counted 24.0,
    # n = 5/2 raised AttributeError and a float d raised TypeError from inside
    # the kernels).
    assert call(Fraction(exact)) == call(exact)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {2 * exact + 1}/2$"):
        call(Fraction(2 * exact + 1, 2))


# The rational and integer parameters that go through rationals._exact or
# _integer, and the renderers' x, whose failed numerator read raises the same
# error, as (call, parameter, an exact value it accepts): the call puts the
# value x in the parameter's place.
PARAMETERS = [
    pytest.param(lambda x: vol_slab(3, x), "s", Fraction(1, 10), id="vol_slab-s"),
    pytest.param(lambda x: volume_lower_bound(5, x, 2, r=3), "e", 5, id="volume_lower_bound-e"),
    pytest.param(lambda x: volume_lower_bound(5, 5, x, r=3), "s", Fraction(7, 5), id="volume_lower_bound-s"),
    pytest.param(lambda x: volume_lower_bound(5, 5, 2, valuations=[1, x]), "valuations", Fraction(1, 2),
                 id="volume_lower_bound-valuations"),
    pytest.param(lambda x: optimize_slice(5, x, 3, 10), "e", 5, id="optimize_slice-e"),
    pytest.param(lambda x: certify_interval(6, x, 15, Fraction(23, 10)), "e_low", 10, id="certify_interval-e_low"),
    pytest.param(lambda x: certify_interval(6, 10, x, Fraction(23, 10)), "e_high", 15, id="certify_interval-e_high"),
    pytest.param(lambda x: certify_interval(6, 10, 15, x), "s", Fraction(23, 10), id="certify_interval-s"),
    pytest.param(lambda x: mixed_colength(_IDEAL, x, 4), "s", Fraction(3, 2), id="mixed_colength-s"),
    pytest.param(lambda x: format_rational(x), "x", Fraction(1, 3), id="format_rational-x"),
    pytest.param(lambda x: decimal_render(x, 2), "x", Fraction(1, 3), id="decimal_render-x"),
    *INTEGER_PARAMETERS,
]


@pytest.mark.parametrize("call, name, exact", PARAMETERS)
def test_rational_inputs_are_exact_or_rejected(call, name, exact):
    # A binary float would enter as its binary value and a string would be
    # parsed; both are refused by name, whatever their value.
    call(exact)
    call(Fraction(exact))
    for value in (float(exact), str(exact), Decimal(str(float(exact))), complex(exact)):
        message = f"^{name} must be int or Fraction, got {type(value).__name__}: {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)


_PLANE = MonomialIdeal(2, [(1, 0), (0, 1)])

# One floor of one parameter, worded the same by every entry point that reads it.
FLOORS = [
    pytest.param(lambda: volume_lower_bound(5, 5, -1, r=3), "s must be >= 0", id="s-volume_lower_bound"),
    pytest.param(lambda: certify_interval(6, 5, 9, -1), "s must be >= 0", id="s-certify_interval"),
    pytest.param(lambda: mixed_colength(_PLANE, -1, 2), "s must be >= 0", id="s-mixed_colength"),
    pytest.param(lambda: frobenius_colength(_PLANE, 0), "q must be >= 1", id="q-frobenius_colength"),
    pytest.param(lambda: mixed_colength(_PLANE, 1, 0), "q must be >= 1", id="q-mixed_colength"),
    pytest.param(lambda: ehk_estimate(_PLANE, [0]), "q must be >= 1", id="q-ehk_estimate"),
    pytest.param(lambda: radical_recursion_bound(3, 5, 3, 2, 1), "e must be >= 6", id="e-radical_recursion_bound"),
    pytest.param(lambda: fixed_dimension_bound(3, 5, "general"), "e must be >= 6", id="e-fixed_dimension_bound"),
    pytest.param(lambda: radical_recursion_bound(1, 6, 4, 2, 1), "d must be >= 2", id="d-radical_recursion_bound"),
    pytest.param(lambda: fixed_dimension_bound(1, 6, "general"), "d must be >= 2", id="d-fixed_dimension_bound"),
    pytest.param(lambda: radical_recursion_bound(3, 6, 2, 2, 1), "k must be >= 3", id="k-radical_recursion_bound"),
    pytest.param(lambda: certify_interval(6, 9, 5, 2), "e_high must be >= 9", id="e_high-certify_interval"),
]


@pytest.mark.parametrize("call, message", FLOORS)
def test_floor_reads_the_same_at_every_entry(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Every cap, one call past it: each is worded by rationals._at_most.
CEILINGS = [
    pytest.param(lambda: vol_slab(513, 1), "d must be <= 512, got 513", id="d-vol_slab"),
    pytest.param(lambda: radical_recursion_bound(3, 6, 5, 2, 1), "k must be <= 4, got 5",
                 id="k-radical_recursion_bound"),
    pytest.param(lambda: zigzag_coeffs(1562), "order must be <= 1561, got 1562", id="order-zigzag_coeffs"),
    pytest.param(lambda: conjecture_threshold(1562), "d must be <= 1561, got 1562", id="d-conjecture_threshold"),
    pytest.param(lambda: vol_slab(512, 511 + Fraction(1, 2**248)),
                 "summed slab sizes (dimension * bit length) must be <= 131072, got 131584",
                 id="slab-bits-vol_slab"),
    pytest.param(lambda: volume_lower_bound(512, 6, 511 + Fraction(1, 3**75), valuations=[1, 510 + Fraction(1, 3**75)]),
                 "summed slab sizes (dimension * bit length) must be <= 131072, got 131584",
                 id="volume-bits-volume_lower_bound"),
    pytest.param(lambda: volume_lower_bound(8, 5, 4, valuations=[Fraction(1, k) for k in range(2, 1003)]),
                 "number of distinct valuations must be <= 1000, got 1001", id="valuations-volume_lower_bound"),
    pytest.param(lambda: optimize_slice(2, 5, 3, 500001), "dimension * grid_resolution must be <= 1000000, got 1000002",
                 id="grid-steps-optimize_slice"),
    pytest.param(lambda: optimize_slice(200, 5, 3, 500),
                 "dimension**3 * grid_resolution must be <= 1000000000, got 4000000000", id="grid-work-optimize_slice"),
    pytest.param(lambda: MonomialIdeal(2, [(i, 1000 - i) for i in range(1001)]),
                 "number of generators must be <= 1000, got 1001", id="generators-MonomialIdeal"),
    pytest.param(lambda: MonomialIdeal(101, [(1,) * 101] * 1000),
                 "generators**2 * num_vars must be <= 100000000, got 101000000", id="minimalize-MonomialIdeal"),
    pytest.param(lambda: frobenius_colength(MonomialIdeal(2, ((10**7, 0), (0, 1))), 1),
                 "staircase scan rows must be <= 1000000, got 10000000", id="rows-frobenius_colength"),
    pytest.param(lambda: mixed_colength(MonomialIdeal(2, ((2, 0), (0, 3))), 1, 500001),
                 "mixed colength scan rows must be <= 1000000, got 1000002", id="rows-mixed_colength"),
    pytest.param(lambda: decimal_render(Fraction(1, 3), 4301), "digits must be <= 4300, got 4301",
                 id="digits-decimal_render"),
    pytest.param(lambda: quadric_ehk(318665857834031151167461, 5),
                 "p must be <= 318665857834031151167460, got 318665857834031151167461", id="p-quadric_ehk"),
]


@pytest.mark.parametrize("call, message", CEILINGS)
def test_ceiling_reads_one_way_at_every_cap(call, message):
    assert re.fullmatch(r".+ must be <= \d+, got \d+", message)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_integer_reads_floor_then_ceiling():
    assert rationals_module._integer("k", Fraction(4), 3, 4) == 4
    for value, message in [
        (2, "k must be >= 3"), (5, "k must be <= 4, got 5"), (Fraction(7, 2), "k must be an integer, got 7/2"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rationals_module._integer("k", value, 3, 4)


PRINT_BUDGET = "^a number of more than 4300 digits is past the print budget$"
# L, the bit length of 10**4300: 2**(L-1) < 10**4300 < 2**L.
BUDGET_BITS = (BUDGET).bit_length()


def test_print_check_refuses_from_the_budget_bit_length():
    # The last admitted bits: a number of 2**(L-1) still prints.  The first
    # refused: no number of at least 2**L prints.
    assert BUDGET_BITS == 14285
    rationals_module._check_printable(BUDGET_BITS - 1)
    assert format_rational(2 ** (BUDGET_BITS - 1)) == str(2 ** (BUDGET_BITS - 1))
    for bits in (BUDGET_BITS, BUDGET_BITS + 1, 10**9):
        with pytest.raises(ValueError, match=PRINT_BUDGET):
            rationals_module._check_printable(bits)
    with pytest.raises(ValueError, match=PRINT_BUDGET):
        format_rational(2**BUDGET_BITS)


def test_print_check_builds_no_power_up_to_three_bits_a_digit(monkeypatch):
    # Up to 3 * _MAX_DIGITS bits, below L, the check admits without building
    # 10**_MAX_DIGITS; from one bit more it compares with L (and admits).
    built = []

    class Budget(int):
        def __rpow__(self, base, mod=None):
            built.append(base)
            return int(base) ** int(self)

    monkeypatch.setattr(rationals_module, "_MAX_DIGITS", Budget(4300))
    for bits in (-1, 0, 3 * 4300):
        rationals_module._check_printable(bits)
    assert built == []
    rationals_module._check_printable(3 * 4300 + 1)
    assert built == [10]


def test_print_check_reads_the_budget_when_called(monkeypatch):
    monkeypatch.setattr(rationals_module, "_MAX_DIGITS", 640)
    bits = (10**640).bit_length()
    rationals_module._check_printable(bits - 1)
    with pytest.raises(ValueError, match="^a number of more than 640 digits is past the print budget$"):
        rationals_module._check_printable(bits)
