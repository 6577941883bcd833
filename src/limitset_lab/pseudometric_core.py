"""Exact rational pseudo-metric geometry.

Two ground models live here.  ``RationalPointSpace`` is the countable
backend: points of Q^d under the max-norm, minus a finite excluded set.
``FinitePseudoMetric`` is a distance matrix on finitely many points (zero
off-diagonal entries allowed), used for semicontinuity checks and
inner-radius sweeps.  It is scaled once to an integer matrix over the LCM
of its entry denominators; every metric axiom is validated on those ints,
and ``dist`` is the exact ``Fraction`` view of the same matrix.  It is a
``FiniteSpace`` (its metric topology, whose minimal open sets are the
zero-sets) that also carries the distance.

Point sets over ``RationalPointSpace`` are frozensets of canonical
points: tuples whose coordinates all have type exactly ``Fraction``.  Entry
points coerce and check their arguments once; a canonical frozenset of
points of the space passes ``check_set`` as the same object, and any other
sequence is coerced and checked point by point.  Point sets over
``FinitePseudoMetric`` are int bitmasks.  Both grounds own the point-set
operations nets use, under the same names.

Every distance on either ground, between points or from a point or a set
to a set, is an exact ``Fraction``; a distance to the empty set is
``INFINITY`` (``math.inf``), which compares exactly with every
``Fraction``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, List

from .errors import (MalformedInputError, MembershipError, PreconditionError,
                     UndefinedCaseError, excerpt)
from .finite_topology import FiniteSpace
from .rationals import (INFINITY, Point, as_point,
                        max_norm_distance)

PointSet = FrozenSet[Point]


class RationalPointSpace:
    """Q^dim under the max-norm with finitely many points removed."""

    rational = True  # point sets are frozensets of rational points

    def __init__(self, dim: int, excluded: Iterable = ()):
        if dim < 1:
            raise MalformedInputError("dimension must be positive")
        self.dim = dim
        self.excluded = frozenset(map(as_point, excluded))
        if any(len(p) != dim for p in self.excluded):
            raise MalformedInputError("excluded point of wrong dimension")

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            return False
        p = as_point(p)
        return not self.excluded or p not in self.excluded

    def check_point(self, p: Point) -> Point:
        p = as_point(p)
        if len(p) != self.dim:
            raise MembershipError(f"point of dimension {len(p)}, space has {self.dim}")
        if self.excluded and p in self.excluded:
            raise MembershipError(f"point {p} is excluded from the space")
        return p

    def check_set(self, a: Iterable) -> PointSet:
        """``a`` as a frozenset of checked canonical points.  A frozenset
        of canonical points of the space is returned as it is: the
        exclusion test reads the hashes it already stores."""
        dim = self.dim
        if (type(a) is frozenset and self.excluded.isdisjoint(a)
                and all(type(p) is tuple and len(p) == dim
                        and p is as_point(p) for p in a)):
            return a
        return frozenset(self.check_point(p) for p in a)

    normalize = check_set

    def closure(self, a: PointSet) -> PointSet:
        return a  # finite sets are closed under the max-norm metric

    def union(self, sets: Iterable[PointSet]) -> PointSet:
        return frozenset().union(*sets)

    def size(self, a: PointSet) -> int:
        return len(a)

    def subset(self, a: PointSet, b: PointSet) -> bool:
        return a <= b

    def in_every_neighborhood(self, s: PointSet, a: PointSet) -> bool:
        """Whether ``s`` lies inside every eps-ball around the finite ``a``:
        at distance zero from it, which under a metric is inclusion."""
        return s <= a

    def __eq__(self, other):
        return (isinstance(other, RationalPointSpace)
                and self.dim == other.dim and self.excluded == other.excluded)

    def __hash__(self):
        return hash(("qspace", self.dim, self.excluded))

    def __repr__(self):
        return f"RationalPointSpace(dim={self.dim}, excluded={sorted(self.excluded)})"

    def __str__(self):
        """The space as report labels spell it."""
        return f"Q^{self.dim}-{sorted(map(str, self.excluded))}"

    def show_sets(self, sets) -> str:
        """Point sets as report labels spell them: sorted point strings."""
        return str(tuple(tuple(sorted(map(str, s))) for s in sets))


class FinitePseudoMetric(FiniteSpace):
    """An explicit pseudo-metric on ``{0, ..., n-1}``, validated at construction.

    ``scaled[i][j]`` is the distance times ``scale``, the LCM of the entry
    denominators, so ``scaled`` is an exact integer matrix; squareness, the
    zero diagonal, signs, symmetry and the triangle inequality are all
    checked on it.  ``dist[i][j]`` is the same distance as an exact
    ``Fraction``.

    It is the finite space of its metric topology: the minimal open set of
    ``i`` is its zero-set ``{j : d(i, j) = 0}``, which the triangle
    inequality makes an equivalence class.
    """

    def __init__(self, dist: List[List]):
        self.n = n = len(dist)
        exact = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                            for x in row) for row in dist)
        for row in exact:
            if len(row) != n:
                raise MalformedInputError("distance matrix is not square")
        self.scale = scale = math.lcm(*(x.denominator
                                        for row in exact for x in row))
        self.scaled = d = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row)
            for row in exact)
        for i, row in enumerate(d):
            if row[i] != 0:
                raise MalformedInputError("diagonal must be zero")
            for j, dij in enumerate(row):
                if dij < 0:
                    raise MalformedInputError("distances must be nonnegative")
                if dij != d[j][i]:
                    raise MalformedInputError("distance matrix must be symmetric")
        for row in d:
            for j, dij in enumerate(row):
                for dik, djk in zip(row, d[j]):
                    if dik > dij + djk:
                        raise MalformedInputError("triangle inequality violated")
        self.dist = exact
        super().__init__([sum(1 << j for j, v in enumerate(row) if not v)
                          for row in d])

    @classmethod
    def from_points(cls, points: Iterable) -> "FinitePseudoMetric":
        """Max-norm distance matrix of a point list (duplicates give zeros).

        Coordinates are scaled to ints over their common denominator, so the
        distances are int maxima; each distinct one becomes one ``Fraction``.
        """
        pts = [as_point(p) for p in points]
        for p in pts:
            if len(p) != len(pts[0]):
                raise MalformedInputError(
                    f"dimension mismatch: {len(pts[0])} vs {len(p)}")
        scale = math.lcm(*(c.denominator for p in pts for c in p))
        coords = [[c.numerator * (scale // c.denominator) for c in p]
                  for p in pts]
        exact = {0: Fraction(0)}
        rows = [[exact[0]] * len(pts) for _ in pts]
        for i, p in enumerate(coords):
            for j in range(i):
                v = max(map(abs, map(operator.sub, p, coords[j])), default=0)
                x = exact.get(v)
                if x is None:
                    x = exact[v] = Fraction(v, scale)
                rows[i][j] = rows[j][i] = x
        return cls(rows)

    def point_to_mask_distance(self, i: int, e: int) -> Fraction:
        if not 0 <= i < self.n:  # a negative i would index dist from the end
            raise PreconditionError(f"point {excerpt(i)} outside the space")
        self.check_set(e)
        best = None
        rest = e
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if best is None or self.dist[i][j] < best:
                best = self.dist[i][j]
        return INFINITY if best is None else best

    def semidistance_masks(self, a: int, b: int) -> Fraction:
        """d(a; b) on bitmask sets with the usual empty-set conventions."""
        self.check_set(a)
        self.check_set(b)
        if a == 0 and b == 0:
            raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
        if a == 0:
            return Fraction(0)
        if b == 0:
            return INFINITY
        worst = Fraction(0)
        rest = a
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = self.point_to_mask_distance(i, b)
            if worst < d:
                worst = d
        return worst

    def __eq__(self, other):
        return isinstance(other, FinitePseudoMetric) and self.dist == other.dist

    def __hash__(self):
        return hash(("metric", self.dist))

    def __repr__(self):
        return f"FinitePseudoMetric(n={self.n})"


# -- distances between finite rational point sets ----------------------------

def _nearest(x: Point, a: PointSet) -> Fraction:
    """d(x, a) for a point and a set already checked; infinity when a is
    empty."""
    return min((max_norm_distance(x, p) for p in a), default=INFINITY)


def point_set_distance(space: RationalPointSpace, x: Point,
                       a: Iterable) -> Fraction:
    """min over a of d(x, .); infinity exactly when a is empty."""
    x = space.check_point(x)
    return _nearest(x, space.check_set(a))


def semidistance(space: RationalPointSpace, a: Iterable,
                 b: Iterable) -> Fraction:
    """d(a; b) = max over a of d(., b), with the empty-set conventions.

    d(emptyset; b) = 0 and d(a; emptyset) = infinity for nonempty sides;
    d(emptyset; emptyset) is an error.
    """
    a = space.check_set(a)
    b = space.check_set(b)
    if not a and not b:
        raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
    if not a:
        return Fraction(0)
    if not b:
        return INFINITY
    return max(_nearest(x, b) for x in a)


def ball_of_set(space: RationalPointSpace, a: Iterable,
                r) -> Callable[[Point], bool]:
    """Membership predicate of B(a; r) = {y : d(y, a) < r}, strict."""
    r = Fraction(r)
    if r <= 0:
        raise PreconditionError("radius must be positive")
    a = space.check_set(a)

    def member(y: Point) -> bool:
        return _nearest(space.check_point(y), a) < r

    return member


def compact_inner_radius(m: FinitePseudoMetric, k: int, u: int) -> Fraction:
    """The inner radius delta with B(k; delta) inside the neighborhood u.

    delta = min over x in k of d(x, complement of u); when the complement is
    empty any radius works and the sentinel 1 is returned.  Raises when u is
    not a neighborhood of the nonempty compact k (delta would be zero).
    """
    m.check_set(k)
    m.check_set(u)
    if k == 0:
        raise PreconditionError("k must be nonempty")
    if k & ~u:
        raise PreconditionError("u must contain k")
    comp = m.full_mask & ~u
    if comp == 0:
        return Fraction(1)
    delta = None
    rest = k
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        d = m.point_to_mask_distance(x, comp)
        if delta is None or d < delta:
            delta = d
    if delta == 0:
        raise PreconditionError("u is not a neighborhood of k in the metric topology")
    # postcondition: the open delta-ball of k stays inside u
    ball = 0
    for y in range(m.n):
        if m.point_to_mask_distance(y, k) < delta:
            ball |= 1 << y
    assert ball & ~u == 0
    return delta

