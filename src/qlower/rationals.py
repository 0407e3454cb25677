"""Exact rational scalars and their text form.

Every weight, threshold, and exact value in this package is a
``fractions.Fraction``; the stdlib type already guarantees lowest terms
and a positive denominator. This module owns coercion and the canonical
text representation: ``"p"`` for integers, ``"p/q"`` otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParseError

RationalLike = Union[int, str, float, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Strings accept "p", "p/q", and decimal literals ("0.3" means 3/10
    exactly). Floats convert to their exact binary value; nan and
    infinities are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"not a rational value: {value!r}")
    try:
        return Fraction(value)  # strings may carry surrounding whitespace
    except (ValueError, OverflowError, ZeroDivisionError) as exc:  # nan, inf, "1/0"
        raise ParseError(f"not a rational value: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical text form, always in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty input)."""
    out = 1
    for v in values:
        out = math.lcm(out, v.denominator)
    return out
