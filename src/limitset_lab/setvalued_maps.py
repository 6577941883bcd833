"""Upper and lower semicontinuity of set-valued maps, brute-forced.

Domains and codomains are finite spaces; a ``FinitePseudoMetric`` is one
(its metric topology), so both kinds of ground share one open-set
enumeration.  Graphs are stored extensionally as one codomain bitmask per
domain point, empty values allowed.  Everything is decided by enumerating
open sets, which is the point: these are the reference answers the
semi-distance criteria are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .errors import MalformedInputError, PreconditionError
from .finite_topology import FiniteSpace, set_bits
from .pseudometric_core import FinitePseudoMetric
from .rationals import INFINITY


@dataclass(frozen=True)
class SetValuedMap:
    domain: FiniteSpace
    codomain: FiniteSpace
    graph: tuple  # codomain bitmask per domain point

    def __post_init__(self):
        if len(self.graph) != self.domain.n:
            raise MalformedInputError("graph must be total on the domain")
        for value in self.graph:
            if value & ~self.codomain.full_mask:
                raise MalformedInputError("graph value outside the codomain")


def image(f: SetValuedMap, a0: int) -> int:
    """Union of the values over a0."""
    f.domain.check_set(a0)
    out = 0
    for x in set_bits(a0):
        out |= f.graph[x]
    return out


def _open_sets_with(ground: FiniteSpace, member: int) -> List[int]:
    return [u for u in ground.open_sets() if u >> member & 1]


def _open_supersets(ground: FiniteSpace, e: int) -> List[int]:
    return [u for u in ground.open_sets() if e & ~u == 0]


def is_usc_at(f: SetValuedMap, x: int) -> bool:
    """Upper semicontinuity at x, by exhaustive U/V enumeration.

    For every open U containing F(x) there must be an open V containing x
    with F(V) inside U.
    """
    f.domain.check_point(x)
    vs = _open_sets_with(f.domain, x)
    return all(any(image(f, v) & ~u == 0 for v in vs)
               for u in _open_supersets(f.codomain, f.graph[x]))


def is_lsc_at(f: SetValuedMap, x: int) -> bool:
    """Lower semicontinuity at x, by exhaustive enumeration.

    For every y in F(x) and every open U containing y, some open V
    containing x must have F(x') meet U for all x' in V.  Empty F(x)
    counts as lower semicontinuous: there is no y to check.
    """
    f.domain.check_point(x)
    vs = _open_sets_with(f.domain, x)
    vs.sort(key=int.bit_count)  # small neighborhoods decide fastest
    for y in set_bits(f.graph[x]):
        for u in _open_sets_with(f.codomain, y):
            for v in vs:
                if all(f.graph[xp] & u for xp in set_bits(v)):
                    break
            else:
                return False
    return True


def lsc_via_semidistance(f: SetValuedMap, x: int) -> bool:
    """The semi-distance criterion for lsc at compact values.

    True iff for every eps > 0 some ball around x keeps
    rho(F(x); F(x')) below eps.  Both quantifiers run over finite grids:
    eps over midpoints between consecutive realized semi-distance values
    and balls over the realized radii around x, which is complete because
    rho and d take finitely many values here.
    """
    if not isinstance(f.domain, FinitePseudoMetric) or \
            not isinstance(f.codomain, FinitePseudoMetric):
        raise PreconditionError("the criterion needs pseudo-metric ground spaces")
    f.domain.check_point(x)
    fx = f.graph[x]
    if fx == 0:
        raise PreconditionError("F(x) must be nonempty (compactness of the value)")

    rhos = [f.codomain.semidistance(fx, value) for value in f.graph]
    finite_values = sorted({r for r in rhos if r != INFINITY})
    eps_grid = _midpoint_grid(finite_values)

    row = f.domain.scaled[x]
    balls = [[xp for xp in range(f.domain.n) if row[xp] <= rad]
             for rad in sorted(set(row))]
    return all(any(all(rhos[xp] < eps for xp in ball) for ball in balls)
               for eps in eps_grid)


def _midpoint_grid(values) -> list:
    """Midpoints between consecutive values, one point per decision region."""
    grid = []
    prev = Fraction(0)
    for v in values:
        if v > prev:
            grid.append((prev + v) / 2)
        prev = v
    grid.append(prev + 1)  # one eps above every realized value
    return [g for g in grid if g > 0]
