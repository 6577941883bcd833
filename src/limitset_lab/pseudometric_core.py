"""Exact rational pseudo-metric geometry.

Two ground models live here.  ``RationalPointSpace`` is the countable
backend: points of Q^d under the max-norm, minus a finite excluded set.
``FinitePseudoMetric`` is a distance matrix on finitely many points (zero
off-diagonal entries allowed), used for semicontinuity checks and
inner-radius sweeps.  It is scaled once to an integer matrix over the LCM
of its entry denominators, the only matrix it holds: every metric axiom is
validated on those ints, and each distance it returns is one ``Fraction``.
It is a ``FiniteSpace`` (its metric topology, whose minimal open sets are
the zero-sets) that also carries the distance.

Point sets over ``RationalPointSpace`` are frozensets of canonical
points: tuples whose coordinates all have type exactly ``Fraction``.  Entry
points coerce and check their arguments once; a canonical frozenset of
points of the space passes ``check_set`` as the same object, and any other
sequence is coerced point by point and hashed once, into the frozenset.
Point sets over ``FinitePseudoMetric`` are int bitmasks.  Both grounds own the point-set
operations nets use, ``semidistance`` included, under the same names.

Every distance on either ground, between points or from a point or a set
to a set, is an exact ``Fraction``, or ``INFINITY`` as ``rationals`` says.
A Q^d semi-distance is a max-min-max on ints, both sets scaled once by the
LCM of their coordinate denominators, and one ``Fraction`` divides it back.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import FrozenSet, Iterable, List

from .errors import MalformedInputError, MembershipError, PreconditionError
from .finite_topology import FiniteSpace, set_bits
from .rationals import (INFINITY, Point, as_point, scale_points,
                        semidistance_with)

PointSet = FrozenSet[Point]


class RationalPointSpace:
    """Q^dim under the max-norm with finitely many points removed."""

    rational = True  # point sets are frozensets of rational points

    def __init__(self, dim: int, excluded: Iterable = ()):
        if type(dim) is not int or dim < 1:  # a bool is no dimension
            raise MalformedInputError("dimension must be a positive int")
        self.dim = dim
        # a frozenset of canonical points, as theoremlab's generators build,
        # is kept as it is (check_set's test): its points are not hashed again
        if not (type(excluded) is frozenset
                and all(type(p) is tuple and p is as_point(p)
                        for p in excluded)):
            excluded = frozenset(map(as_point, excluded))
        self.excluded = excluded
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
        exclusion test reads the hashes it already stores.  Any other
        ``a`` has each point hashed once, by the frozenset built from it,
        and the exclusions are tested on the stored hashes; a refusal
        checks the points one by one in input order, so it names the first
        bad point, as ``check_point`` on each in turn would."""
        dim = self.dim
        if type(a) is frozenset and self.excluded.isdisjoint(a):
            for p in a:
                if type(p) is not tuple or len(p) != dim or p is not as_point(p):
                    break
            else:
                return a
        points = []
        try:
            for p in a:
                p = as_point(p)
                if len(p) != dim:
                    self.check_point(p)  # raises the dimension refusal
                points.append(p)
        except Exception:
            # a point before the failing one may be excluded
            for p in points:
                self.check_point(p)
            raise
        s = frozenset(points)
        if not self.excluded.isdisjoint(s):
            for p in points:
                self.check_point(p)
        return s

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

    def semidistance(self, a: Iterable, b: Iterable) -> Fraction:
        """d(a; b) = max over a of the max-norm distance to b, on ints
        (see the module docstring)."""
        return semidistance_with(self.check_set(a), self.check_set(b),
                                 _farthest)

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


def _farthest(a: PointSet, b: PointSet) -> Fraction:
    scale, points = scale_points((*a, *b))
    xs, ys = points[:len(a)], points[len(a):]
    return Fraction(max(min(max(map(abs, map(operator.sub, x, y)))
                            for y in ys) for x in xs), scale)


class FinitePseudoMetric(FiniteSpace):
    """An explicit pseudo-metric on ``{0, ..., n-1}``, validated at construction.

    ``scaled[i][j]`` is the distance times ``scale``, the LCM of the entry
    denominators, so ``scaled`` is an exact integer matrix, and the only
    one held; squareness, the zero diagonal, signs, symmetry and the
    triangle inequality are all checked on it.

    It is the finite space of its metric topology: the minimal open set of
    ``i`` is its zero-set ``{j : d(i, j) = 0}``, which the triangle
    inequality makes an equivalence class.
    """

    def __init__(self, dist: List[List]):
        n = len(dist)
        exact = [[x if type(x) is Fraction else Fraction(x) for x in row]
                 for row in dist]
        for row in exact:
            if len(row) != n:
                raise MalformedInputError("distance matrix is not square")
        scale = math.lcm(*[x.denominator for row in exact for x in row])
        self._adopt(scale, [[x.numerator * (scale // x.denominator)
                             for x in row] for row in exact])

    def _adopt(self, scale: int, d: List[List[int]]):
        """Check the axioms on ``d``, the distances times ``scale``; keep both."""
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
        self.scale, self.scaled = scale, tuple(map(tuple, d))
        super().__init__([sum(1 << j for j, v in enumerate(row) if not v)
                          for row in d])

    @classmethod
    def from_points(cls, points: Iterable) -> "FinitePseudoMetric":
        """Max-norm distance matrix of a point list (duplicates give zeros).

        Coordinates are scaled to ints over their common denominator, so the
        distances are int maxima; dividing them and the scale by their gcd
        gives the scale of ``__init__``: the LCM of the reduced denominators.
        """
        pts = [as_point(p) for p in points]
        for p in pts:
            if len(p) != len(pts[0]):
                raise MalformedInputError(
                    f"dimension mismatch: {len(pts[0])} vs {len(p)}")
        scale, coords = scale_points(pts)
        d = [[0] * len(coords) for _ in coords]
        for i, p in enumerate(coords):  # the lower triangle, mirrored
            for j in range(i):
                d[i][j] = d[j][i] = max(
                    map(abs, map(operator.sub, p, coords[j])), default=0)
        g = math.gcd(scale, *[v for row in d for v in row])
        m = cls.__new__(cls)
        m._adopt(scale // g, [[v // g for v in row] for row in d])
        return m

    def point_to_mask_distance(self, i: int, e: int) -> Fraction:
        self.check_point(i)
        self.check_set(e)
        return Fraction(min(map(self.scaled[i].__getitem__, set_bits(e))),
                        self.scale) if e else INFINITY

    def semidistance(self, a: int, b: int) -> Fraction:
        """d(a; b) = max over a of the distance to b, on bitmask sets."""
        d = self.scaled
        return semidistance_with(
            self.check_set(a), self.check_set(b),
            lambda a, b: Fraction(max(min(d[i][j] for j in set_bits(b))
                                      for i in set_bits(a)), self.scale))

    def __eq__(self, other):
        return (isinstance(other, FinitePseudoMetric)
                and (self.scale, self.scaled) == (other.scale, other.scaled))

    def __hash__(self):
        return hash(("metric", self.scale, self.scaled))

    def __repr__(self):
        return f"FinitePseudoMetric(n={self.n})"


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
    delta = min(m.point_to_mask_distance(x, comp) for x in set_bits(k))
    if delta == 0:
        raise PreconditionError("u is not a neighborhood of k in the metric topology")
    # postcondition: the open delta-ball of k stays inside u; a point of
    # the complement in it is a fault of this function, not of its input
    if any(m.point_to_mask_distance(y, k) < delta for y in set_bits(comp)):
        raise RuntimeError("the delta-ball of k leaves u")
    return delta

