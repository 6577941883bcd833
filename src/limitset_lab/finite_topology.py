"""Exact finite topological spaces via specialization preorders.

A finite topology on ``{0, ..., n-1}`` is given by its specialization
preorder, the relation ``spec[x][y]``: ``x`` lies in the closure of
``{y}``.  A ``FiniteSpace`` stores it as ``rows``, one int bitmask per
point, ``rows[x]`` = ``{y : spec[x][y]}``; ``matrix()`` builds the boolean
matrix on demand.  ``rows[x]`` doubles as ``minimal_open(x)``, the minimal
open set of ``x`` (the up-set of ``x`` in the specialization preorder),
and closed sets are exactly the down-sets.  Point sets throughout are int
bitmasks, and ``set_bits`` is the one walk over their points, here and in
every module above.  It takes one of three paths.  A mask below 256 reads a
precomputed tuple: on the semicontinuity sets (at most 5 bits) a
generator would cost more than the walk.  A larger sparse mask is one
scan of its binary string.  A larger dense one (at least one bit in 24
set), such as most ``omega`` sets, is read a byte at a time through the
same table, at most ``DENSE_CHUNK`` indices at once.

A space owns the point-set operations that nets over it use (``normalize``,
``closure``, ``in_every_neighborhood``) and inherits the bitmask algebra
(``union``, ``size``, ``subset``, ``show_sets``) from ``BitmaskGround``,
as ``CellGrid`` does; the names match ``RationalPointSpace``'s.  Closures
and minimal open supersets are memoized per space in dicts filled on first
ask; a set is range-checked before it is stored, so an out-of-range set is
never cached and raises on every ask.  Only an ``int`` is looked up there:
a ``bool`` equals 0 or 1 and would otherwise read an int's entry.

A finite directed index of a net is a ``FiniteSpace`` too: its preorder
is the index order, so ``rows[s]`` is the up-set ``{t : s <= t}``, and
``top_element`` checks directedness.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (MalformedInputError, PreconditionError, SizeLimitError,
                     excerpt)

ENUMERATION_CAP = 5
REGULARITY_CAP = 10  # is_regular's pair scan grows about 5x per point


# The most indices the dense path of ``set_bits`` builds at once: 160 kB of
# list and ints, where a list of a whole 2^20-cell set takes 42 MB and the
# sparse path's binary strings 2 MB.  Chunks of 2^8 to 2^16 walk at about
# the same speed.
DENSE_CHUNK = 1 << 12


def _scan_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending, in one linear scan."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


_SMALL_BITS = tuple(tuple(_scan_bits(m)) for m in range(256))


def _byte_bits(data: bytes, start: int) -> List[int]:
    """Indices of the set bits of little-endian ``data``, plus ``start``."""
    return [at + i for at, byte in zip(range(start, start + 8 * len(data), 8),
                                       data) if byte
            for i in _SMALL_BITS[byte]]


def _chunked_bits(data: bytes) -> Iterator[int]:
    step = DENSE_CHUNK >> 3  # bytes holding at most DENSE_CHUNK set bits
    for k in range(0, len(data), step):
        yield from _byte_bits(data[k:k + step], 8 * k)


def set_bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of the nonnegative ``mask``, ascending.

    Below 256 the tuple is read from a table.  A wider mask with fewer
    than one bit in 24 set is scanned as a binary string, one ``find`` per
    index.  A denser one is read as bytes, each nonzero byte expanded
    through the same table: a list, or past ``DENSE_CHUNK`` bits one flat
    generator of the indices, which expands ``DENSE_CHUNK`` bits at a time.
    The crossover, walking masks of 512 to 2^20 random bits on a 2-CPU
    Xeon VM: with one bit in 16 to one in 32 set, the byte walk took
    0.7-1.2 of the scan's time, so 24 splits the tie; with one bit in 8 it
    took 0.55-0.75, with one in two 0.3-0.45, and with one in 64 1.4-1.5.
    """
    if 0 <= mask < 256:
        return _SMALL_BITS[mask]
    width = mask.bit_length()
    if 24 * mask.bit_count() < width:
        return _scan_bits(mask)
    data = mask.to_bytes((width + 7) >> 3, "little")
    return _byte_bits(data, 0) if width <= DENSE_CHUNK else _chunked_bits(data)


class BitmaskGround:
    """The point-set algebra of every ground whose point sets are bitmasks."""

    rational = False  # point sets are bitmasks, not rational point sets

    def union(self, sets: Iterable[int]) -> int:
        return reduce(operator.or_, sets, 0)

    def size(self, s: int) -> int:
        return s.bit_count()

    def subset(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def show_sets(self, sets) -> str:
        """Point sets as report labels spell them: a tuple of bitmasks."""
        return str(tuple(sets))


class FiniteSpace(BitmaskGround):
    """A finite topological space encoded by its specialization preorder."""

    def __init__(self, rows: Sequence[int]):
        """``rows[x]`` = bitmask of ``{y : x in cls({y})}``; must be a preorder."""
        self.n = len(rows)
        self.rows = rows = tuple(rows)
        self.full_mask = full = (1 << self.n) - 1
        for r in rows:
            if r & ~full:
                raise MalformedInputError("relation row mentions out-of-range points")
        for a, row in enumerate(rows):  # transitive: each row is open
            if not (row >> a & 1 and self.is_open(row)):
                raise MalformedInputError(
                    "relation matrix must be reflexive and transitive")
        # filled on first ask: minimal_open_superset, closure, open_sets
        self._supersets = {}
        self._closures = {}
        self._open_sets = None

    @classmethod
    def from_matrix(cls, rel: Sequence[Sequence[bool]]) -> "FiniteSpace":
        """The space whose preorder is ``rel``: a ``spec`` or an index ``rel``."""
        n = len(rel)
        for row in rel:
            if len(row) != n:
                raise MalformedInputError("relation matrix is not square")
        # a relation matrix describes a topology, never a distance
        return FiniteSpace([sum(1 << y for y in range(n) if rel[x][y])
                            for x in range(n)])

    def matrix(self):
        return [[bool(self.rows[x] >> y & 1) for y in range(self.n)]
                for x in range(self.n)]

    def check_point(self, x: int):
        """Refuse anything but an ``int`` point of the space; a ``bool`` is
        no point, and a negative one would index a row from the end."""
        if type(x) is not int or not 0 <= x < self.n:
            raise PreconditionError(f"point {excerpt(x)} outside the space")

    def check_set(self, e: int) -> int:
        """``e``, if it is an ``int`` mask of points of the space (no ``bool``)."""
        if type(e) is not int:
            raise PreconditionError(f"point set {excerpt(e)} is not a bitmask")
        if e & ~self.full_mask:
            raise PreconditionError("point set mentions out-of-range points")
        return e

    def normalize(self, s) -> int:
        """A point set as a checked bitmask; ``s`` is an ``int`` mask or an
        iterable of points, and a ``bool`` is neither."""
        if type(s) is not int:
            if isinstance(s, int) or not hasattr(s, "__iter__"):
                raise PreconditionError(
                    f"point set {excerpt(s)} is not a bitmask")
            mask = 0
            for x in s:
                if type(x) is not int or not 0 <= x < self.n:
                    raise PreconditionError(
                        f"point {excerpt(x)} outside the space")
                mask |= 1 << x
            return mask
        if s & ~self.full_mask:  # check_set, inlined on this hot path
            raise PreconditionError("point set mentions out-of-range points")
        return s

    def closure(self, e: int) -> int:
        """Smallest closed superset: all x with spec[x][y] for some y in e."""
        out = self._closures.get(e) if type(e) is int else None
        if out is None:
            self.check_set(e)
            out = self._closures[e] = sum(
                1 << x for x, row in enumerate(self.rows) if row & e)
        return out

    def in_every_neighborhood(self, s: int, a: int) -> bool:
        """Whether ``s`` lies inside every neighborhood of ``a``: inside the
        smallest one, its minimal open superset."""
        return s & ~self.minimal_open_superset(a) == 0

    def minimal_open(self, x: int) -> int:
        """The smallest open set containing ``x`` (its up-set)."""
        self.check_point(x)
        return self.rows[x]

    def minimal_open_superset(self, e: int) -> int:
        """Intersection of all open supersets of ``e`` (open, since finite)."""
        out = self._supersets.get(e) if type(e) is int else None
        if out is None:
            self.check_set(e)
            out = self._supersets[e] = self.union(
                self.rows[x] for x in set_bits(e))
        return out

    def is_open(self, u: int) -> bool:
        self.check_set(u)
        for x in set_bits(u):
            if self.rows[x] & ~u:
                return False
        return True

    def is_closed(self, e: int) -> bool:
        return closure(self, e) == e  # the wrapper perfbench traces

    def open_sets(self) -> List[int]:
        if self._open_sets is None:
            self._open_sets = [u for u in range(1 << self.n)
                               if self.is_open(u)]
        return self._open_sets

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.rows == other.rows

    def __hash__(self):
        return hash(("space", self.rows))

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, rows={self.rows})"

    def __str__(self):
        """The space as report labels spell it."""
        return f"space{self.rows}"


def top_element(index: FiniteSpace) -> int:
    """The least-index global upper bound of a finite directed index.

    This is the directedness check on net indices: the rows are up-sets
    of a preorder, so their intersection is the set of upper bounds of
    every element, and it is empty exactly when the index is undirected
    (or empty) and ``PreconditionError`` is raised.
    """
    tops = reduce(operator.and_, index.rows, index.full_mask)
    if not tops:
        raise PreconditionError("index order must be directed")
    return next(iter(set_bits(tops)))  # the least set bit


def closure(space: FiniteSpace, e: int) -> int:
    """Smallest closed superset: all x with spec[x][y] for some y in e."""
    return space.closure(e)


def is_neighborhood(space: FiniteSpace, u: int, x: int) -> bool:
    """Whether some open O satisfies x in O, O subset of u."""
    space.check_set(u)
    # every open set containing x contains its minimal open set
    return space.minimal_open(x) & ~u == 0


def is_hausdorff(space: FiniteSpace) -> bool:
    """Distinct points admit disjoint neighborhoods.

    Disjoint neighborhoods exist iff the minimal open sets are disjoint.
    """
    for x in range(space.n):
        for y in range(x + 1, space.n):
            if space.rows[x] & space.rows[y]:
                return False
    return True


def is_regular(space: FiniteSpace) -> bool:
    """Every neighborhood of every point contains a closed neighborhood.

    Checked verbatim by enumerating candidate neighborhoods; the symmetric
    specialization criterion (``is_pseudometrizable``) is the independent
    cross-check used by the verification suites.  The scan runs over pairs
    of subsets, so it is refused above ``REGULARITY_CAP`` points.
    """
    if space.n > REGULARITY_CAP:
        raise SizeLimitError(
            f"regularity check capped at n <= {REGULARITY_CAP}")
    subsets = range(1 << space.n)
    for x in range(space.n):
        for u in subsets:
            if not is_neighborhood(space, u, x):
                continue
            if not any(is_neighborhood(space, v, x) and space.is_closed(v)
                       and v & ~u == 0 for v in subsets):
                return False
    return True


def is_pseudometrizable(space: FiniteSpace) -> bool:
    """Specialization preorder symmetric, i.e. the topology is a partition."""
    return all(bool(space.rows[x] >> y & 1) == bool(space.rows[y] >> x & 1)
               for x in range(space.n) for y in range(x + 1, space.n))


def separate_compact_from_point(space: FiniteSpace, k: int,
                                y: int) -> Optional[Tuple[int, int]]:
    """Disjoint neighborhoods of a compact set ``k`` and an outside point.

    Tries the minimal open neighborhoods first; since every neighborhood
    contains the minimal one, failure there means no pair exists.  Guaranteed
    to succeed on Hausdorff spaces.
    """
    space.check_set(k)
    space.check_point(y)
    if k >> y & 1:
        raise PreconditionError("y must lie outside k")
    if k == 0:
        return 0, space.full_mask  # vacuous separation
    u = space.minimal_open_superset(k)
    v = space.minimal_open(y)
    if u & v:
        return None
    return u, v


def enumerate_spaces(n: int) -> Iterator[FiniteSpace]:
    """All topologies on n labeled points, each exactly once.

    Generates specialization rows with transitivity pruning; counts match
    the reflexive-transitive relation counts (1, 4, 29, 355, 6942).
    """
    if n > ENUMERATION_CAP:
        raise SizeLimitError(f"enumeration capped at n <= {ENUMERATION_CAP}")
    if n <= 0:
        raise PreconditionError("need at least one point")

    candidates = [[m | (1 << x) for m in range(1 << n) if not m >> x & 1]
                  for x in range(n)]
    rows: List[int] = []

    def consistent(x: int, rx: int) -> bool:
        for y in range(x):
            ry = rows[y]
            if rx >> y & 1 and ry & ~rx:
                return False
            if ry >> x & 1 and rx & ~ry:
                return False
        return True

    def build(x: int) -> Iterator[FiniteSpace]:
        if x == n:
            yield FiniteSpace(list(rows))
            return
        for rx in candidates[x]:
            if consistent(x, rx):
                rows.append(rx)
                yield from build(x + 1)
                rows.pop()

    yield from build(0)


SIERPINSKI = FiniteSpace([0b11, 0b10])     # open sets: {}, {1}, {0,1}


def discrete_space(n: int) -> FiniteSpace:
    return FiniteSpace([1 << x for x in range(n)])


def indiscrete_space(n: int) -> FiniteSpace:
    full = (1 << n) - 1
    return FiniteSpace([full] * n)
