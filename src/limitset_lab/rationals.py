"""Exact extended-rational arithmetic and rational point helpers.

Distances in the rational backends are ordinary ``fractions.Fraction``
values except where a set is empty, in which case the conventions demand
a genuine infinity.  ``ExtendedRational`` carries both cases; addition and
``max`` absorb infinity.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import MalformedInputError, excerpt


@functools.total_ordering
class ExtendedRational:
    """A rational number or the distinguished value infinity."""

    __slots__ = ("_value",)

    def __init__(self, value=None, *, infinite: bool = False):
        if infinite:
            self._value = None
        else:
            self._value = Fraction(value)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ArithmeticError("infinite value has no rational part")
        return self._value

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __add__(self, other) -> "ExtendedRational":
        other = _coerce(other)
        if self._value is None or other._value is None:
            return INFINITY
        return ExtendedRational(self._value + other._value)

    __radd__ = __add__

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        if self._value is None:
            return "ExtendedRational(infinite=True)"
        return f"ExtendedRational({self._value!r})"

    def __str__(self):
        return "inf" if self._value is None else str(self._value)


def _coerce(x) -> ExtendedRational:
    if isinstance(x, ExtendedRational):
        return x
    return ExtendedRational(x)


INFINITY = ExtendedRational(infinite=True)


# -- rational points under the max-norm ------------------------------------

Point = tuple  # tuple of Fraction, one entry per dimension


def as_point(coords) -> Point:
    """Coerce a coordinate sequence to a tuple of Fractions."""
    return tuple(Fraction(c) for c in coords)


def max_norm_distance(p: Point, q: Point) -> Fraction:
    if len(p) != len(q):
        raise MalformedInputError(
            f"dimension mismatch: {len(p)} vs {len(q)}")
    return max((abs(a - b) for a, b in zip(p, q)), default=Fraction(0))


# -- JSON encoding ----------------------------------------------------------
# Rationals travel as {"num": "<int>", "den": "<int>"} with string digits so
# arbitrary precision survives any consumer.

def fraction_to_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def fraction_from_json(obj) -> Fraction:
    if type(obj) is int:  # a JSON bool is not a number
        return Fraction(obj)
    if isinstance(obj, dict) and "num" in obj and "den" in obj:
        try:
            # through str, a bool or float part fails instead of reading
            # as 1 or truncating
            return Fraction(int(str(obj["num"])), int(str(obj["den"])))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational object: {excerpt(obj)}") from exc
    raise MalformedInputError(f"expected rational, got: {excerpt(obj)}")


def point_to_json(p: Point) -> list:
    return [fraction_to_json(c) for c in p]


def point_from_json(obj) -> Point:
    if not isinstance(obj, list):
        raise MalformedInputError(f"expected point (list), got: {excerpt(obj)}")
    return tuple(fraction_from_json(c) for c in obj)
