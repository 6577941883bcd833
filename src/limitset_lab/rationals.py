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
from fractions import Fraction

from .errors import MalformedInputError

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
