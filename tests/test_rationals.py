import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlower import DomainError, ParseError, as_rational, format_rational, round_binary64
from qlower.rationals import describe_number, lcm_denominators


class TestAsRational:
    @pytest.mark.parametrize("value, expected", [
        (3, Fraction(3)),
        (-7, Fraction(-7)),
        ("3/10", Fraction(3, 10)),
        ("-7", Fraction(-7)),
        ("0.25", Fraction(1, 4)),
        (" 1/2 ", Fraction(1, 2)),
        ("2/4", Fraction(1, 2)),
        (Fraction(5, 3), Fraction(5, 3)),
    ])
    def test_conversions(self, value, expected):
        assert as_rational(value) == expected

    def test_float_is_taken_at_exact_binary_value(self):
        assert as_rational(0.5) == Fraction(1, 2)
        assert as_rational(0.1) == Fraction(3602879701896397, 36028797018963968)
        assert as_rational(0.1) != Fraction(1, 10)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", None, [1], True, False,
                                     float("nan"), float("inf"), float("-inf"),
                                     "1e5000", "1e-5000"])
    def test_rejections(self, bad):
        with pytest.raises(ParseError):
            as_rational(bad)

    def test_exponent_bound_follows_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert as_rational("1e4300") == 10**4300
            with pytest.raises(ParseError):
                as_rational("1e4301")
            sys.set_int_max_str_digits(0)  # 0 lifts the limit
            assert as_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestRoundBinary64:
    @pytest.mark.parametrize("value, expected", [
        (Fraction(1, 3), 1 / 3), ("0.1", 0.1), (7, 7.0), (0.5, 0.5),
        (Fraction(10**400), float("inf")), (Fraction(-(10**400)), float("-inf")),
    ])
    def test_rounds_once(self, value, expected):
        assert round_binary64(value) == expected

    @pytest.mark.parametrize("bad", [None, "junk", [1], float("nan"), float("inf"),
                                     float("-inf")],
                             ids=["None", "junk", "list", "nan", "inf", "-inf"])
    def test_non_numbers_refused(self, bad):
        with pytest.raises(ParseError):
            round_binary64(bad)


class TestFormatRational:
    @pytest.mark.parametrize("value, expected", [
        (Fraction(3, 10), "3/10"),
        (Fraction(-2), "-2"),
        (Fraction(0), "0"),
        (Fraction(2, 4), "1/2"),
        (Fraction(-1, 4), "-1/4"),
    ])
    def test_format(self, value, expected):
        assert format_rational(value) == expected

    @given(st.fractions())
    def test_round_trip(self, q):
        assert as_rational(format_rational(q)) == q

    @pytest.mark.parametrize("value, described", [
        (Fraction(10**4300), "<14285-bit integer>"),
        (Fraction(-3, 10**5000), "-3/<16610-bit integer>"),
        (Fraction(10**5000 + 1, 7), "<16610-bit integer>/7"),
    ])
    def test_part_too_long_to_print_is_domain_error(self, value, described):
        with pytest.raises(DomainError, match=f"^{re.escape(described)} has too many digits"):
            format_rational(value)

    def test_follows_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # 0 lifts the limit
            assert format_rational(Fraction(1, 10**5000)) == f"1/{10**5000}"
        finally:
            sys.set_int_max_str_digits(limit)


class TestDescribeNumber:
    @pytest.mark.parametrize("value", [0, -7, pytest.param(10**4299, id="4300-digits"), True,
                                       0.5, float("nan"), Fraction(-3, 4), Fraction(5), "1e9",
                                       None])
    def test_prints_what_str_prints(self, value):
        assert describe_number(value) == str(value)

    @pytest.mark.parametrize("value, expected", [
        pytest.param(10**4300, "<14285-bit integer>", id="4301-digits"),
        pytest.param(-10**5000, "-<16610-bit integer>", id="negative"),
        pytest.param(Fraction(10**5000), "<16610-bit integer>", id="fraction-integer"),
        pytest.param(Fraction(-10**5000, 3), "-<16610-bit integer>/3", id="numerator"),
        pytest.param(Fraction(1, 10**5000), "1/<16610-bit integer>", id="denominator"),
    ])
    def test_abbreviates_an_integer_str_refuses(self, value, expected):
        assert describe_number(value) == expected

    def test_follows_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # 0 lifts the limit
            assert describe_number(10**5000) == str(10**5000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestLcmDenominators:
    def test_mixed(self):
        assert lcm_denominators([Fraction(1, 2), Fraction(1, 3), Fraction(5)]) == 6

    def test_integers_only(self):
        assert lcm_denominators([Fraction(4), Fraction(-2)]) == 1

    def test_empty(self):
        assert lcm_denominators([]) == 1
