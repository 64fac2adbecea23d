"""Exact rational scalars, the readers of outside numbers, and decimal rendering.

Every quantity in this package is a :class:`fractions.Fraction`; no
floating point is used on any computational path.  Decimal output is
truncated toward minus infinity, never rounded, so a rendered lower
bound is still a valid lower bound.

Text becomes a number only here: ``parse_rational`` reads rational
literals and ``_parse_integer`` integer ones (CLI options, ideal-file
exponents).  Both refuse a run of more than ``_MAX_DIGITS`` digits before
parsing, so no PYTHONINTMAXSTRDIGITS setting changes what they accept.
A library argument becomes a number through ``_exact`` or ``_integer``,
which also check its floor (``_at_least``) and, for ``_integer``, its
ceiling (``_at_most``); a cap on a cost that several arguments set goes
through ``_at_most`` too.  A sequence argument is read by ``_items``
first.  So each bound is worded once, here:
``<name> must be >= <least>`` and ``<name> must be <= <most>, got <value>``.
Before the library forms a power whose size an argument sets,
``_check_printable`` refuses one that provably cannot print, with
``format_rational``'s message.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction | int

__all__ = ["decimal_render", "format_rational", "parse_rational"]


# The print budget: the most digits a printed numerator or denominator may
# have, Python's default int-to-str limit, checked by format_rational under
# any interpreter setting.  It also caps |decimal exponent| in parse_rational:
# `vol --dim 3 --s 1e10000000` ran 12.7 s.
_MAX_DIGITS = 4300
# A run of more than _MAX_DIGITS digits as int() counts them: digits with
# single underscores between.  The lookbehinds start a match only at the
# head of a run, so a search reads each run once.  Written once, at import:
# lowering _MAX_DIGITS afterwards lowers the print budget alone.
_LONG_DIGIT_RUN = rf"(?<!\d)(?<!\d_)\d(?:_?\d){{{_MAX_DIGITS}}}"


def _check_digit_runs(text: str) -> None:
    """Raise ValueError where ``text`` holds a run of more than ``_MAX_DIGITS`` digits.

    Called before ``int`` or ``Fraction`` reads the run, so a parse fails
    the same way under any PYTHONINTMAXSTRDIGITS.  A shorter text holds no
    such run, so the pattern is compiled only for a longer one.
    """
    if len(text) > _MAX_DIGITS and re.search(_LONG_DIGIT_RUN, text):
        raise ValueError(f"a run of more than {_MAX_DIGITS} digits is past the input budget")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, integer, or decimal literals exactly ("3.32" -> 83/25).

    Raises ValueError for a run of more than ``_MAX_DIGITS`` digits, and for
    a decimal exponent beyond ``_MAX_DIGITS`` in absolute value, before
    building the power of ten.
    """
    _check_digit_runs(text)
    try:
        if abs(int(text.lower().partition("e")[2] or 0)) <= _MAX_DIGITS:
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    raise ValueError(f"decimal exponent must be at most {_MAX_DIGITS} in absolute value, got {text!r}")


def _parse_integer(text: str) -> int:
    """``int(text)`` after ``_check_digit_runs``; one ValueError for any text either refuses."""
    _check_digit_runs(text)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer literal: {text!r}") from None


def _exact(name: str, value: object, least: int | None = None) -> Fraction:
    """``value`` as a ``Fraction``, where it is an int or a ``Fraction`` not below ``least``; else ValueError."""
    return _at_least(name, Fraction(_rational_input(name, value)), least)


def _integer(name: str, value: object, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int, where it is an int or a ``Fraction`` of denominator 1.

    Raises ValueError naming the parameter ``name`` otherwise, as ``_exact``
    does, and for a ``Fraction`` that is not an integer.  Both types carry
    ``numerator`` and ``denominator``, so no ``Fraction`` is built.  With
    ``least``, also the floor rule of ``_at_least``, and with ``most`` then
    the ceiling rule of ``_at_most``.
    """
    value = _rational_input(name, value)
    if value.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {value}")
    return _at_most(name, _at_least(name, value.numerator, least), most)


def _at_least(name: str, value: Rational, least: int | None) -> Rational:
    """``value``, unless it is below ``least``: the one floor rule, ``<name> must be >= <least>``.

    Every lower bound of an argument in this package is checked here, by
    the reader that reads the argument, so each floor is worded one way.
    """
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _at_most(name: str, value: int, most: int | None) -> int:
    """``value``, unless it is above ``most``: the one ceiling rule, ``<name> must be <= <most>, got <value>``.

    Every cap in this package is checked here, on an argument by its reader
    or on a cost that several arguments set by the function that pays it.
    """
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")
    return value


def _rational_input(name: str, value: object) -> Rational:
    """``value`` itself, where it is an int or a ``Fraction``.

    Raises ValueError naming the parameter ``name`` for any other type: a
    binary float would enter as its binary value, not the decimal it
    prints as, and a string would be parsed, so neither is converted
    silently (``parse_rational`` reads text).
    """
    if isinstance(value, (int, Fraction)):
        return value
    raise ValueError(f"{name} must be int or Fraction, got {type(value).__name__}: {value!r}")


def _items(name: str, value: object) -> tuple:
    """The items of ``value``, read once into a tuple; ValueError naming ``name`` where it is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {type(value).__name__}: {value!r}") from None
    return tuple(items)


# The message of both print-budget checks, format_rational's and _check_printable's.
_PAST_PRINT_BUDGET = "a number of more than {} digits is past the print budget"


def format_rational(x: Rational) -> str:
    """Render an int or ``Fraction`` as ``num/den``, or plain ``num`` for integers.

    Raises ValueError where the numerator or the denominator has more than
    ``_MAX_DIGITS`` digits.  A part of at most 3 * _MAX_DIGITS bits is below
    8**_MAX_DIGITS, so only a longer one is compared with 10**_MAX_DIGITS.
    """
    try:
        n, d = x.numerator, x.denominator
    except AttributeError:
        _rational_input("x", x)  # raises ValueError: an int or a Fraction has both parts
        raise
    if (n.bit_length() > 3 * _MAX_DIGITS or d.bit_length() > 3 * _MAX_DIGITS) and max(abs(n), d) >= 10**_MAX_DIGITS:
        raise ValueError(_PAST_PRINT_BUDGET.format(_MAX_DIGITS))
    return str(n) if d == 1 else f"{n}/{d}"


def _check_printable(bits: int) -> None:
    """Raise ``format_rational``'s ValueError where a number of at least ``2**bits`` cannot print.

    Such a number is at least 2**L > 10**_MAX_DIGITS once bits >= L, the
    bit length of 10**_MAX_DIGITS, so its caller refuses it before forming
    it.  L > 3 * _MAX_DIGITS, so 10**_MAX_DIGITS is built only for a
    longer ``bits``.  The budget is read when called.
    """
    if bits > 3 * _MAX_DIGITS and bits >= (10**_MAX_DIGITS).bit_length():
        raise ValueError(_PAST_PRINT_BUDGET.format(_MAX_DIGITS))


# Decimal places of every truncated display: CLI lines, report columns and notes.
DISPLAY_DIGITS = 4


def decimal_render(x: Rational, digits: int) -> str:
    """Decimal string of ``x`` truncated to exactly ``digits`` places.

    Truncation is toward minus infinity, so the rendered value re-parses
    to a rational that is <= x and within 10**-digits of it.  Both parts
    stay in the print budget: ``digits`` is at most ``_MAX_DIGITS``, and
    the whole part is written by ``format_rational``.
    """
    digits = _integer("digits", digits, 1, _MAX_DIGITS)
    try:
        scaled = (x.numerator * 10**digits) // x.denominator
    except AttributeError:
        _rational_input("x", x)  # raises ValueError, as in format_rational
        raise
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{format_rational(whole)}.{frac:0{digits}d}"
