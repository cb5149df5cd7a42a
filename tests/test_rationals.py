"""Exact scalars: formatting and parsing are inverse, floats never enter."""

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
