"""Exact rational scalars and their text form.

Every weight, threshold, and exact value in this package is a
``fractions.Fraction``; the stdlib type already guarantees lowest terms
and a positive denominator. This module owns coercion, the canonical
text representation (``"p"`` for integers, ``"p/q"`` otherwise), the
one rounding to binary64, used wherever a value is printed or recorded
as a float, and the one rule for every count, size and dimension.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, ParseError

RationalLike = Union[int, str, float, Fraction]

_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def _exponent_too_large(text: str) -> bool:
    """Whether a decimal exponent exceeds the int(str) digit limit.

    Fraction("1e<n>") builds 10**n, so its cost grows with n; the limit
    CPython puts on int(str) (sys.get_int_max_str_digits, 0 for none)
    bounds it the same way.
    """
    match = _DECIMAL_EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if match is None or not limit:
        return False
    digits = match.group(1).replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or "0") > limit


def as_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Strings accept "p", "p/q", and decimal literals ("0.3" means 3/10
    exactly). Floats convert to their exact binary value; nan and
    infinities are rejected, and so are decimal exponents above
    sys.get_int_max_str_digits() in magnitude.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if ("e" in value or "E" in value) and _exponent_too_large(value):
            raise ParseError(f"decimal exponent too large: {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"not a rational value: {value!r}")
    try:
        return Fraction(value)  # strings may carry surrounding whitespace
    except (ValueError, OverflowError, ZeroDivisionError) as exc:  # nan, inf, "1/0"
        raise ParseError(f"not a rational value: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical text form, "p" or "p/q" in lowest terms. A part with more
    digits than str() allows raises DomainError naming its bit length."""
    try:
        return str(value)
    except ValueError:  # sys.get_int_max_str_digits() exceeded
        raise DomainError(f"{describe_number(value)} has too many digits to print") from None


def describe_number(value) -> str:
    """``value`` as an error message prints it, which is str(value), except
    that an integer with more digits than str() allows
    (sys.get_int_max_str_digits()), alone or as a part of a Fraction, is
    shown by its bit length: -10**5000 prints as "-<16610-bit integer>"."""
    if isinstance(value, Fraction):
        text = describe_number(value.numerator)
        return text if value.denominator == 1 else f"{text}/{describe_number(value.denominator)}"
    if isinstance(value, int):
        limit = sys.get_int_max_str_digits()
        if limit and abs(value) >= 10**limit:
            return f"{'-' if value < 0 else ''}<{abs(value).bit_length()}-bit integer>"
    return str(value)


def require_count(name: str, value, least: int = 1) -> None:
    """Refuse a count, size or dimension that is not an int >= least with
    DomainError; a bool, float, Fraction or None is not an int here."""
    if type(value) is not int or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {describe_number(value)}")


def round_binary64(value: RationalLike) -> float:
    """The nearest binary64 to as_rational(value) (so a non-number, nan or
    an infinity raises ParseError); an infinity beyond binary64's range."""
    value = as_rational(value)
    try:
        return float(value)  # int / int: correctly rounded
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty input)."""
    out = 1
    for v in values:
        out = math.lcm(out, v.denominator)
    return out
