"""One table of ground laws, run on every kind of ground a net stands on.

A law is a predicate over a ground, two of its point sets ``a`` and ``b``
and a brute-force ``near(s, a)``: whether ``s`` lies in every neighborhood
of ``a``, decided without the ground's own answer.  On a finite space that
is every open superset of ``a`` (from ``open_sets()``) containing ``s``; on
a metric ground it is d(s; a) = 0, computed over pairwise ``Fraction``
distances of points or cell centers.  A metric ground also obeys the
semi-distance laws, whose reference is that brute-force d(s; a) itself.
"""

import random
from fractions import Fraction as F

from limitset_lab.errors import UndefinedCaseError
from limitset_lab.finite_topology import (BitmaskGround, FiniteSpace,
                                          enumerate_spaces, set_bits)
from limitset_lab.pseudometric_core import RationalPointSpace
from limitset_lab.rationals import INFINITY
from limitset_lab.semiflow_cells import CellGrid

from test_setvalued_maps import zero_one_metrics

LAWS = {
    "closure is extensive":
        lambda g, a, b, near: g.subset(a, g.closure(a)),
    "closure is idempotent":
        lambda g, a, b, near: g.closure(g.closure(a)) == g.closure(a),
    "closure keeps the empty set":
        lambda g, a, b, near: g.closure(g.union([])) == g.union([]),
    "closure preserves binary unions":
        lambda g, a, b, near: (g.closure(g.union([a, b]))
                               == g.union([g.closure(a), g.closure(b)])),
    "subset is the order of union":
        lambda g, a, b, near: g.subset(a, b) == (g.union([a, b]) == b),
    "normalize keeps a normalized set":
        lambda g, a, b, near: g.normalize(a) == a,
    "in_every_neighborhood matches brute force":
        lambda g, a, b, near: g.in_every_neighborhood(a, b) == near(a, b),
}


def semidistance_or_undefined(g, a, b):
    """``g.semidistance(a, b)``, or ``None`` where it raises as undefined."""
    try:
        return g.semidistance(a, b)
    except UndefinedCaseError:
        return None


# laws of a metric ground, over the brute-force ``distance(s, a)``
METRIC_LAWS = {
    "semidistance matches brute force":
        lambda g, a, b, distance: (semidistance_or_undefined(g, a, b)
                                   == distance(a, b)),
    "semidistance is zero iff in every neighborhood":
        lambda g, a, b, distance: (not (g.size(a) and g.size(b))
                                   or (g.semidistance(a, b) == 0)
                                   == g.in_every_neighborhood(a, b)),
}


def broken_laws(grounds):
    """(law, a, b) for every law that fails on a pair of sample sets; a
    ground with a brute-force distance is held to the metric laws too."""
    broken = []
    for ground, sets, near, distance in grounds:
        laws = [(name, law, near) for name, law in LAWS.items()]
        if distance is not None:
            laws += [(name, law, distance)
                     for name, law in METRIC_LAWS.items()]
        for a in sets:
            for b in sets:
                broken += [(name, a, b) for name, law, ref in laws
                           if not law(ground, a, b, ref)]
    return broken


def zero_distance(points, dist):
    """(near, distance): ``distance(s, a)`` is d(s; a), max-min over
    pairwise distances, with the empty s at distance 0, a nonempty s at
    infinity from the empty a, and ``None`` for two empty sets;
    ``near(s, a)`` is d(s; a) == 0, and holds for the empty s."""
    def distance(s, a):
        xs, ys = points(s), points(a)
        if not xs:
            return F(0) if ys else None
        if not ys:
            return INFINITY
        return max(min(dist(x, y) for y in ys) for x in xs)

    def near(s, a):
        return distance(s, a) in (0, None)
    return near, distance


def max_norm(x, y):
    return max(abs(xi - yi) for xi, yi in zip(x, y))


def finite_spaces(max_points=4):
    """All topologies on at most 4 points (389 of them), with all sets."""
    for n in range(1, max_points + 1):
        for space in enumerate_spaces(n):
            opens = space.open_sets()

            def near(s, a, opens=opens):
                return all(s & ~u == 0 for u in opens if a & ~u == 0)
            yield space, range(1 << n), near, None


def zero_one_metric_grounds():
    """Every {0, 1} pseudo-metric on at most 3 points, with all sets."""
    for n in range(1, 4):
        for m in zero_one_metrics(n):
            yield (m, range(1 << n),
                   *zero_distance(lambda e: list(set_bits(e)),
                                  lambda i, j, m=m: F(m.scaled[i][j],
                                                      m.scale)))


def rational_grounds():
    """Seeded sets on Q and Q^2, some of them with an excluded point."""
    rng = random.Random(31)
    coords = [F(k, 4) for k in range(-4, 5)]
    for dim in (1, 2):
        lattice = [tuple(rng.choice(coords) for _ in range(dim))
                   for _ in range(6)]
        for excluded in ((), (lattice[0],)):
            space = RationalPointSpace(dim, excluded)
            pool = [p for p in lattice if space.contains(p)]
            sets = [space.normalize(rng.sample(pool, rng.randint(0, 3)))
                    for _ in range(14)]
            yield space, sets, *zero_distance(list, max_norm)


def cell_grounds(grid):
    """Seeded cell sets of ``grid``, sparse ones and their subsets."""
    rng = random.Random(grid.total)
    sets = [0, grid.full_mask]
    for _ in range(10):
        mask = rng.getrandbits(grid.total) & rng.getrandbits(grid.total)
        sets += [mask, mask & rng.getrandbits(grid.total)]
    yield grid, sets, *zero_distance(
        lambda e: [grid.center(i) for i in set_bits(e)], max_norm)


def test_every_ground_obeys_every_law():
    families = {
        "finite spaces": finite_spaces(),
        "{0, 1} metrics": zero_one_metric_grounds(),
        "rational": rational_grounds(),
        "1-D cells": cell_grounds(CellGrid(1, 8)),
        "2-D cells": cell_grounds(CellGrid(2, 4)),
    }
    broken = {name: broken_laws(grounds)[:5]
              for name, grounds in families.items()}
    assert broken == {name: [] for name in families}


def test_the_table_covers_its_grounds():
    assert sum(1 for _ in finite_spaces()) == 389
    assert sum(1 for _ in zero_one_metric_grounds()) == 1 + 2 + 5
    for grounds in (rational_grounds(), cell_grounds(CellGrid(1, 8))):
        for ground, sets, near, distance in grounds:
            # the samples hold strict subsets and neighborhoods both ways
            assert any(a != b and ground.subset(a, b)
                       for a in sets for b in sets)
            answers = {near(a, b) for a in sets for b in sets}
            assert answers == {True, False}


def test_the_semidistance_laws_cover_both_conventions_and_the_undefined_case():
    families = (zero_one_metric_grounds(), rational_grounds(),
                cell_grounds(CellGrid(1, 8)), cell_grounds(CellGrid(2, 4)))
    for grounds in families:
        for ground, sets, near, distance in grounds:
            empty = ground.union([])
            assert empty in sets and len(set(sets)) > 1
            nonempty = next(s for s in sets if ground.size(s))
            assert distance(empty, empty) is None
            assert distance(empty, nonempty) == 0
            assert distance(nonempty, empty) == INFINITY


def test_the_table_sees_a_broken_ground(monkeypatch):
    # a space whose neighborhoods of a are the supersets of a: every open
    # superset is one, so it says no where brute force says yes
    monkeypatch.setattr(FiniteSpace, "in_every_neighborhood",
                        BitmaskGround.subset)
    broken = broken_laws(finite_spaces(max_points=3))
    assert broken
    assert {name for name, _, _ in broken} == {
        "in_every_neighborhood matches brute force"}


def test_the_table_sees_a_broken_semidistance(monkeypatch):
    # d(emptyset; emptyset) read as 0 instead of undefined, as a cell-grid
    # semi-distance once did
    def zero_when_both_empty(grid, a, b):
        return F(0) if not a and not b else semidistance(grid, a, b)

    semidistance = CellGrid.semidistance
    monkeypatch.setattr(CellGrid, "semidistance", zero_when_both_empty)
    assert set(broken_laws(cell_grounds(CellGrid(1, 8)))) == {
        ("semidistance matches brute force", 0, 0)}
