"""Exact distances and rational point helpers.

A distance is a plain ``fractions.Fraction``, or ``INFINITY`` where the
empty-set convention d(x, emptyset) = inf demands one.  ``INFINITY`` is
``math.inf``, which a ``Fraction`` compares with exactly: every finite
distance is below it, and ``max`` and ``+`` absorb it.  No other number
type carries a distance.

A rational point is *canonical* when it is a ``tuple`` whose coordinates
all have type exactly ``Fraction``.  Library entry points coerce a point
once, with ``as_point``; a canonical point passes through unchanged, so a
point the library has already checked is neither rebuilt nor hashed again.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import MalformedInputError, excerpt

INFINITY = math.inf


# -- rational points under the max-norm ------------------------------------

Point = tuple  # tuple of Fraction, one entry per dimension


def as_point(coords) -> Point:
    """Coerce a coordinate sequence to a canonical point (a tuple of exact
    ``Fraction``s); a canonical point is returned as it is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(Fraction(c) for c in coords)


def max_norm_distance(p: Point, q: Point) -> Fraction:
    if len(p) != len(q):
        raise MalformedInputError(
            f"dimension mismatch: {len(p)} vs {len(q)}")
    return max((abs(a - b) for a, b in zip(p, q)), default=Fraction(0))


# -- JSON encoding ----------------------------------------------------------
# Rationals travel as {"num": "<int>", "den": "<int>"} with string digits so
# arbitrary precision survives any consumer.  A part must match ASCII
# -?[0-9]+ after str(); int() alone also takes "1_0", " 1", "+1", "\u0663".
_INTEGER = re.compile(r"-?[0-9]+")


def fraction_to_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def fraction_from_json(obj) -> Fraction:
    if type(obj) is int:  # a JSON bool is not a number
        return Fraction(obj)
    if isinstance(obj, dict) and "num" in obj and "den" in obj:
        try:
            num, den = str(obj["num"]), str(obj["den"])
            if not (_INTEGER.fullmatch(num) and _INTEGER.fullmatch(den)):
                raise ValueError("rational parts must be ASCII integers")
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational object: {excerpt(obj)}") from exc
    raise MalformedInputError(f"expected rational, got: {excerpt(obj)}")


def point_to_json(p: Point) -> list:
    return [fraction_to_json(c) for c in p]


def point_from_json(obj) -> Point:
    if not isinstance(obj, list):
        raise MalformedInputError(f"expected point (list), got: {excerpt(obj)}")
    return tuple(fraction_from_json(c) for c in obj)
