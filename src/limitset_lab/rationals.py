"""Exact distances and rational point helpers.

A distance is a plain ``fractions.Fraction``, or ``INFINITY`` where the
empty-set convention d(x, emptyset) = inf demands one.  ``INFINITY`` is
``math.inf``, which a ``Fraction`` compares with exactly: every finite
distance is below it, and ``max`` and ``+`` absorb it.  No other number
type carries a distance.  Every metric ground's semi-distance d(a; b) =
max over x in a of d(x, b) follows ``semidistance_with``: d(emptyset; b) =
0, d(a; emptyset) = inf, and d(emptyset; emptyset) is not defined.

A rational point is *canonical* when it is a ``tuple`` whose coordinates
all have type exactly ``Fraction``.  Library entry points coerce a point
once, with ``as_point``; a canonical point passes through unchanged, so a
point the library has already checked is neither rebuilt nor hashed again.
The Q^d kernels compute on the ints ``scale_points`` gives and build a
``Fraction`` only for the value they return.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UndefinedCaseError

INFINITY = math.inf


def semidistance_with(a, b, farthest) -> Fraction:
    """d(a; b) of two checked point sets: ``farthest(a, b)``, the greatest
    distance from a point of a to b, if both are nonempty, else as above."""
    if a and b:
        return farthest(a, b)
    if a or b:
        return INFINITY if a else Fraction(0)
    raise UndefinedCaseError("d(emptyset; emptyset) is not defined")


# -- rational points under the max-norm ------------------------------------

Point = tuple  # tuple of Fraction, one entry per dimension


def as_point(coords) -> Point:
    """Coerce a coordinate sequence to a canonical point (a tuple of exact
    ``Fraction``s); a canonical point is returned as it is."""
    if type(coords) is tuple:
        for c in coords:
            if type(c) is not Fraction:
                break
        else:
            return coords
    return tuple(map(Fraction, coords))


def scale_points(points) -> tuple:
    """(scale, numerators): the LCM of the points' coordinate denominators,
    and each canonical point's coordinates times it, as a list of ints."""
    # a list: unpacking a generator strands resized tuples in free lists
    scale = math.lcm(*[c.denominator for p in points for c in p])
    return scale, [[c.numerator * (scale // c.denominator) for c in p]
                   for p in points]
