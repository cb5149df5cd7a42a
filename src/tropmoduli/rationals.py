"""Exact rational scalars: parsing, formatting, and the infinite length marker.

Every number that crosses a module boundary is a `fractions.Fraction` or the
singleton `INF`.  Floats are rejected on input and never produced on output;
all serialized values use the string forms "p/q", "p", or "inf".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import GraphError, is_integer

# "t^(q)" or "t^q": the closing parenthesis is required exactly when the
# opening one is there
_MONOMIAL = re.compile(r"t\^(\()?(-?\d+(?:/\d+)?)(?(1)\))$")


class Infinity:
    """Marker for an infinite edge length (a persistent node, v(0) = inf)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("tropmoduli.inf")


INF = Infinity()


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a string.

    Accepted string forms: "5", "-3", "5/2", and valuation shorthands for
    monomials in a uniformizer, "t^5" or "t^(5/2)" (meaning 5 and 5/2).
    Decimals such as "0.5" are exact too.  Floats are rejected: they cannot
    represent the intended value exactly.  So is exponent notation ("1e3"),
    whose expansion can be far larger than the string.
    """
    if is_integer(value):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}: pass an exact string like '5/2' instead"
        )
    if isinstance(value, str):
        s = value.strip()
        m = _MONOMIAL.match(s)
        if m:
            s = m.group(2)
        try:
            if "e" in s.lower():  # Fraction would expand "1e999999999" in full
                raise ValueError("exponent notation")
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def parse_length(value) -> Fraction | Infinity:
    """Parse an edge length: a rational as above, or "inf" for infinity."""
    if isinstance(value, Infinity):
        return INF
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return INF
    return parse_rational(value)


def format_rational(q) -> str:
    """Render a Fraction (or INF) in the canonical "p/q" / "p" / "inf" form.
    A part with more digits than Python converts is refused with GraphError."""
    if isinstance(q, Infinity):
        return "inf"
    q = Fraction(q)
    try:
        return str(q)  # "p/q", or "p" for an integer
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise GraphError(f"an exact result has more than {limit} digits") from exc
