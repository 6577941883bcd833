"""Exact rational pseudo-metric geometry.

Two ground models live here.  ``RationalPointSpace`` is the countable
backend: points of Q^d under the max-norm, minus a finite excluded set;
all distances are exact ``Fraction`` values.  ``FinitePseudoMetric`` is an
explicit distance matrix on finitely many points (zero off-diagonal
entries allowed), used for semicontinuity checks and inner-radius sweeps.
It is a ``FiniteSpace`` (its metric topology, whose minimal open sets are
the zero-sets) that also carries the distance.

Point sets over ``RationalPointSpace`` are frozensets of coordinate
tuples; point sets over ``FinitePseudoMetric`` are int bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, FrozenSet, Iterable, List

from .errors import (MalformedInputError, MembershipError, PreconditionError,
                     UndefinedCaseError)
from .finite_topology import FiniteSpace
from .rationals import (INFINITY, ExtendedRational, Point, as_point,
                        max_norm_distance)

PointSet = FrozenSet[Point]


class RationalPointSpace:
    """Q^dim under the max-norm with finitely many points removed."""

    def __init__(self, dim: int, excluded: Iterable = ()):
        if dim < 1:
            raise MalformedInputError("dimension must be positive")
        self.dim = dim
        self.excluded = frozenset(as_point(p) for p in excluded)
        for p in self.excluded:
            if len(p) != dim:
                raise MalformedInputError("excluded point of wrong dimension")

    def contains(self, p: Point) -> bool:
        return len(p) == self.dim and as_point(p) not in self.excluded

    def check_point(self, p: Point) -> Point:
        p = as_point(p)
        if len(p) != self.dim:
            raise MembershipError(f"point of dimension {len(p)}, space has {self.dim}")
        if p in self.excluded:
            raise MembershipError(f"point {p} is excluded from the space")
        return p

    def check_set(self, a: Iterable) -> PointSet:
        return frozenset(self.check_point(p) for p in a)

    def distance(self, p: Point, q: Point) -> Fraction:
        return max_norm_distance(p, q)

    def __eq__(self, other):
        return (isinstance(other, RationalPointSpace)
                and self.dim == other.dim and self.excluded == other.excluded)

    def __hash__(self):
        return hash(("qspace", self.dim, self.excluded))

    def __repr__(self):
        return f"RationalPointSpace(dim={self.dim}, excluded={sorted(self.excluded)})"


class FinitePseudoMetric(FiniteSpace):
    """An explicit pseudo-metric on ``{0, ..., n-1}``, validated at construction.

    It is the finite space of its metric topology: the minimal open set of
    ``i`` is its zero-set ``{j : d(i, j) = 0}``, which the triangle
    inequality makes an equivalence class.
    """

    def __init__(self, dist: List[List]):
        self.n = len(dist)
        self.dist = tuple(tuple(Fraction(x) for x in row) for row in dist)
        for row in self.dist:
            if len(row) != self.n:
                raise MalformedInputError("distance matrix is not square")
        for i in range(self.n):
            if self.dist[i][i] != 0:
                raise MalformedInputError("diagonal must be zero")
            for j in range(self.n):
                if self.dist[i][j] < 0:
                    raise MalformedInputError("distances must be nonnegative")
                if self.dist[i][j] != self.dist[j][i]:
                    raise MalformedInputError("distance matrix must be symmetric")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.dist[i][k] > self.dist[i][j] + self.dist[j][k]:
                        raise MalformedInputError("triangle inequality violated")
        super().__init__([sum(1 << j for j, d in enumerate(row) if not d)
                          for row in self.dist])

    @classmethod
    def from_points(cls, points: Iterable) -> "FinitePseudoMetric":
        """Max-norm distance matrix of a point list (duplicates give zeros)."""
        pts = [as_point(p) for p in points]
        return cls([[max_norm_distance(p, q) for q in pts] for p in pts])

    def point_to_mask_distance(self, i: int, e: int) -> ExtendedRational:
        self.check_set(e)
        best = None
        rest = e
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if best is None or self.dist[i][j] < best:
                best = self.dist[i][j]
        return INFINITY if best is None else ExtendedRational(best)

    def semidistance_masks(self, a: int, b: int) -> ExtendedRational:
        """d(a; b) on bitmask sets with the usual empty-set conventions."""
        self.check_set(a)
        self.check_set(b)
        if a == 0 and b == 0:
            raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
        if a == 0:
            return ExtendedRational(0)
        if b == 0:
            return INFINITY
        worst = ExtendedRational(0)
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

def point_set_distance(space: RationalPointSpace, x: Point,
                       a: Iterable) -> ExtendedRational:
    """min over a of d(x, .); infinity exactly when a is empty."""
    x = space.check_point(x)
    a = space.check_set(a)
    if not a:
        return INFINITY
    return ExtendedRational(min(space.distance(x, p) for p in a))


def semidistance(space: RationalPointSpace, a: Iterable,
                 b: Iterable) -> ExtendedRational:
    """d(a; b) = max over a of d(., b), with the empty-set conventions.

    d(emptyset; b) = 0 and d(a; emptyset) = infinity for nonempty sides;
    d(emptyset; emptyset) is an error.
    """
    a = space.check_set(a)
    b = space.check_set(b)
    if not a and not b:
        raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
    if not a:
        return ExtendedRational(0)
    if not b:
        return INFINITY
    return max(point_set_distance(space, x, b) for x in a)


def ball_of_set(space: RationalPointSpace, a: Iterable,
                r) -> Callable[[Point], bool]:
    """Membership predicate of B(a; r) = {y : d(y, a) < r}, strict."""
    r = Fraction(r)
    if r <= 0:
        raise PreconditionError("radius must be positive")
    a = space.check_set(a)

    def member(y: Point) -> bool:
        d = point_set_distance(space, y, a)
        return not d.is_infinite and d.value < r

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
        d = m.point_to_mask_distance(x, comp).value
        if delta is None or d < delta:
            delta = d
    if delta == 0:
        raise PreconditionError("u is not a neighborhood of k in the metric topology")
    # postcondition: the open delta-ball of k stays inside u
    ball = 0
    for y in range(m.n):
        if not m.point_to_mask_distance(y, k).value >= delta:
            ball |= 1 << y
    assert ball & ~u == 0
    return delta

