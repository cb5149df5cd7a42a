"""Exact scalars: formatting and parsing are inverse, floats never enter."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmoduli.rationals import INF, format_rational, parse_length, parse_rational

PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.fractions())
def test_format_then_parse_round_trips(q):
    text = format_rational(q)
    assert parse_rational(text) == q
    assert parse_rational(f"t^({text})") == q
    assert parse_rational(f"t^{text}") == q
    assert parse_length(text) == q


@PROPERTY
@given(st.floats())
def test_floats_are_refused(x):
    with pytest.raises(ValueError):
        parse_rational(x)
    with pytest.raises(ValueError):
        parse_length(x)


@pytest.mark.parametrize("text", ["inf", "Infinity", " INF "])
def test_infinity_parses_to_the_singleton(text):
    assert parse_length(text) is INF
    assert format_rational(parse_length(text)) == "inf"


def test_decimals_parse_exactly():
    # the other documented forms are covered by the round trip above
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_length("-2.25") == Fraction(-9, 4)


@pytest.mark.parametrize("parse,text", [(parse_rational, "1e3"), (parse_length, "2E-5")])
def test_exponent_notation_is_refused(parse, text):
    # Fraction would accept it, and "1e999999999" would build 10**999999999
    with pytest.raises(ValueError, match="not a rational"):
        parse(text)


@pytest.mark.parametrize("parse", [parse_rational, parse_length])
@pytest.mark.parametrize("text", ["t^(5/2", "t^5/2)"])
def test_unbalanced_parenthesis_is_refused(parse, text):
    with pytest.raises(ValueError, match="not a rational"):
        parse(text)
