"""The two index orders of a net: finite directed orders and Z+.

* ``FiniteOrder`` -- an explicit reflexive/transitive relation on
  ``{0, ..., n-1}``, stored as per-element "above" bitmasks;
* ``NonnegativeIntegers`` (the instance ``ZNN``) -- the usual order on Z+.

Both kinds are sequential, so the paper's sequential notions apply to
every net without a check: a finite directed order has a top element, and
the constant sequence at the top is final; Z+ is its own final sequence.
Elements are ints.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import MalformedInputError, PreconditionError


class FiniteOrder:
    def __init__(self, rows: Sequence[int]):
        """``rows[a]`` is the bitmask of ``{b : a <= b}``."""
        self.n = len(rows)
        full = (1 << self.n) - 1
        for r in rows:
            if r & ~full:
                raise MalformedInputError("relation row mentions out-of-range elements")
        self.rows = tuple(rows)

    @classmethod
    def from_matrix(cls, rel: Sequence[Sequence[bool]]) -> "FiniteOrder":
        n = len(rel)
        for row in rel:
            if len(row) != n:
                raise MalformedInputError("relation matrix is not square")
        rows = [sum(1 << b for b in range(n) if rel[a][b]) for a in range(n)]
        return cls(rows)

    def matrix(self):
        return [[bool(self.rows[a] >> b & 1) for b in range(self.n)]
                for a in range(self.n)]

    def elements(self) -> range:
        return range(self.n)

    def leq(self, a, b) -> bool:
        return bool(self.rows[a] >> b & 1)

    def __eq__(self, other):
        return isinstance(other, FiniteOrder) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"FiniteOrder(n={self.n})"


class NonnegativeIntegers:
    """The usual order on Z+; ``ZNN`` is its one instance."""

    def __repr__(self):
        return "NonnegativeIntegers()"


ZNN = NonnegativeIntegers()
IndexOrder = Union[FiniteOrder, NonnegativeIntegers]


# -- relation-matrix predicates ---------------------------------------------

def is_directed(rel: Sequence[Sequence[bool]]) -> bool:
    """True iff ``rel`` is reflexive, transitive and has pairwise upper bounds."""
    n = len(rel)
    for row in rel:
        if len(row) != n:
            raise MalformedInputError("relation matrix is not square")
    rows = [sum(1 << b for b in range(n) if rel[a][b]) for a in range(n)]
    return _rows_directed(rows, n)


def _rows_reflexive_transitive(rows: Sequence[int], n: int) -> bool:
    for a in range(n):
        if not rows[a] >> a & 1:
            return False
        rest = rows[a]
        while rest:
            b = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[b] & ~rows[a]:
                return False
    return True


def _rows_directed(rows: Sequence[int], n: int) -> bool:
    if n == 0:
        return False  # directed sets are nonempty
    if not _rows_reflexive_transitive(rows, n):
        return False
    for a in range(n):
        for b in range(a + 1, n):
            if not rows[a] & rows[b]:
                return False
    return True


def top_element(order: FiniteOrder) -> int:
    """The least-index global upper bound of a finite directed order.

    This is the directedness check on net indices: an undirected order
    raises ``PreconditionError``.
    """
    if not _rows_directed(order.rows, order.n):
        raise PreconditionError("index order must be directed")
    tops = -1
    for row in order.rows:
        tops &= row  # nonempty: a finite directed order has a top
    return (tops & -tops).bit_length() - 1  # least set bit
