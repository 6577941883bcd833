import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limitset_lab
from limitset_lab.errors import (MalformedInputError, MembershipError,
                                 PreconditionError, UndefinedCaseError)
from limitset_lab.finite_topology import (FiniteSpace, closure,
                                          discrete_space)
from limitset_lab.pseudometric_core import (FinitePseudoMetric,
                                            RationalPointSpace,
                                            compact_inner_radius)
from limitset_lab.rationals import INFINITY, as_point
from limitset_lab.semiflow_cells import (CellGrid, DiscreteSemiflow,
                                         omega_limit_cells)
from limitset_lab.subset_nets import (AffineEscape, GeometricConverge,
                                      Periodic, SubsetNet, kuratowski_limits)
from limitset_lab.theoremlab import (RULE_FAMILIES, random_rule_net,
                                     rule_net_stream)

from test_setvalued_maps import zero_one_metrics

Q1 = RationalPointSpace(1)

rational = st.fractions(min_value=-8, max_value=8, max_denominator=8)
point1 = st.tuples(rational)


def pt(*coords):
    return tuple(F(c) for c in coords)


class TestPointSetDistance:
    """d(x, a) is the semi-distance d({x}; a)."""

    def test_distance_to_own_singleton(self):
        assert Q1.semidistance([pt(3)], [pt(3)]) == 0

    def test_distance_to_empty_is_infinite(self):
        assert Q1.semidistance([pt(0)], []) == INFINITY

    def test_min_over_pairs(self):
        # oracle: enumerate the pairs
        a = [pt(3), pt(4)]
        expected = min(abs(F(3) - F(0)), abs(F(4) - F(0)))
        assert Q1.semidistance([pt(0)], a) == expected == 3

    def test_excluded_point_rejected(self):
        space = RationalPointSpace(1, [pt(0)])
        with pytest.raises(MembershipError):
            space.semidistance([pt(0)], [pt(1)])

    @given(point1, point1, st.sets(point1, min_size=1, max_size=4))
    def test_lipschitz_in_the_point_argument(self, x, y, a):
        dx = Q1.semidistance([x], a)
        dy = Q1.semidistance([y], a)
        assert abs(dx - dy) <= abs(x[0] - y[0])


class TestSemidistance:
    def test_self_distance_zero(self):
        a = [pt(1), pt(5)]
        assert Q1.semidistance(a, a) == 0

    def test_empty_first_argument(self):
        assert Q1.semidistance([], [pt(2)]) == 0

    def test_empty_second_argument(self):
        assert Q1.semidistance([pt(2)], []) == INFINITY

    def test_both_empty_undefined(self):
        with pytest.raises(UndefinedCaseError):
            Q1.semidistance([], [])

    def test_max_min_enumeration(self):
        a, b = [pt(0), pt(10)], [pt(1), pt(9)]
        expected = max(min(abs(x[0] - y[0]) for y in b) for x in a)
        assert Q1.semidistance(a, b) == expected == 1

    def test_asymmetry(self):
        assert Q1.semidistance([pt(0)], [pt(0), pt(5)]) == 0
        assert Q1.semidistance([pt(0), pt(5)], [pt(0)]) == 5

    @given(st.sets(point1, min_size=1, max_size=3),
           st.sets(point1, min_size=1, max_size=3),
           st.sets(point1, min_size=1, max_size=3))
    def test_triangle_property(self, a, b, c):
        ab = Q1.semidistance(a, b)
        bc = Q1.semidistance(b, c)
        ac = Q1.semidistance(a, c)
        assert ac <= ab + bc

    @pytest.mark.parametrize("i", [-1, -3, 3, True, False, 1.5, 1.0, "1",
                                   None])
    def test_point_to_mask_distance_refuses_a_point_outside(self, i):
        # a negative index would read another point's row of dist, a bool
        # would be read as point 0 or 1, and a float cannot index dist
        m = FinitePseudoMetric.from_points([(0,), (1,), (2,)])
        with pytest.raises(PreconditionError):
            m.point_to_mask_distance(i, 0b1)
        assert m.point_to_mask_distance(2, 0b1) == 2

    def test_zero_iff_subset_of_closure_on_finite_metrics(self):
        rng = random.Random(99)
        for _ in range(200):
            pts = [(F(rng.randint(-6, 6), rng.choice((1, 2))),)
                   for _ in range(rng.randint(1, 5))]
            m = FinitePseudoMetric.from_points(pts)
            masks = range(1, 1 << m.n)
            for _ in range(8):
                a = rng.choice(list(masks))
                b = rng.choice(list(masks))
                cls_b = sum(1 << i for i in range(m.n)
                            if m.point_to_mask_distance(i, b) == 0)
                assert (m.semidistance(a, b) == 0) == (a & ~cls_b == 0)


class Half(F):
    """A Fraction subclass: equal to its value, but not canonical."""


Q2_ORIGIN = RationalPointSpace(2, [pt(0, 0)])  # Q^2 minus the origin
EXCLUDED_MESSAGE = ("point (Fraction(0, 1), Fraction(0, 1)) is excluded "
                    "from the space")
DIMENSION_MESSAGE = "point of dimension 1, space has 2"


class TestCanonicalPoints:
    """A canonical point is a tuple of exact Fractions; it and frozensets
    of it pass the checks unchanged, and anything else is coerced."""

    def test_as_point_returns_a_canonical_tuple_itself(self):
        p = pt(1, F(1, 2))
        assert as_point(p) is p

    @pytest.mark.parametrize("coords", [(1, 2), [F(1), F(2)], (True, 2),
                                        (Half(1), F(2)), (F(1), 2.0)],
                             ids=["int", "list", "bool", "subclass", "float"])
    def test_as_point_coerces_anything_else(self, coords):
        p = as_point(coords)
        assert p == pt(1, 2) and type(p) is tuple
        assert all(type(c) is F for c in p)

    def test_canonical_frozenset_is_the_same_object(self):
        a = frozenset([pt(1, 2), pt(F(-1, 3), 0)])
        assert Q2_ORIGIN.check_set(a) is a
        assert Q2_ORIGIN.normalize(a) is a

    @pytest.mark.parametrize("given", [
        frozenset([(1, 2), (F(-1, 3), 0)]),
        [[1, 2], [F(-1, 3), 0]],
        frozenset([(True, 2), (F(-1, 3), False)]),
        frozenset([(Half(1), F(2)), (Half(-1, 3), F(0))]),
    ], ids=["int", "list", "bool", "subclass"])
    def test_other_input_is_coerced_to_an_equal_canonical_set(self, given):
        a = Q2_ORIGIN.check_set(given)
        assert a == frozenset([pt(1, 2), pt(F(-1, 3), 0)])
        assert type(a) is frozenset and a is not given
        for p in a:
            assert type(p) is tuple and all(type(c) is F for c in p)

    @pytest.mark.parametrize("given", [
        frozenset([(0, 0), (1, F(1, 2))]),
        [[0, 0], [1, F(1, 2)]],
        frozenset([(False, 0), (Half(1), F(1, 2))]),
    ], ids=["int", "list", "subclass"])
    def test_other_excluded_input_is_coerced(self, given):
        excluded = RationalPointSpace(2, given).excluded
        assert excluded == frozenset([pt(0, 0), pt(1, F(1, 2))])
        assert type(excluded) is frozenset and excluded is not given
        for p in excluded:
            assert type(p) is tuple and all(type(c) is F for c in p)

    def test_canonical_excluded_frozenset_is_kept(self):
        # its points are neither rebuilt nor hashed again
        given = frozenset([pt(0, 0), pt(1, F(1, 2))])
        assert RationalPointSpace(2, given).excluded is given

    @pytest.mark.parametrize("given", [
        frozenset([pt(0, 0), pt(1)]), frozenset([pt(0, 0, 0)]), [[1]]],
        ids=["canonical-short", "canonical-long", "list"])
    def test_excluded_point_of_wrong_dimension_is_rejected(self, given):
        with pytest.raises(MalformedInputError,
                           match="excluded point of wrong dimension"):
            RationalPointSpace(2, given)

    @pytest.mark.parametrize("bad, message", [
        (pt(0, 0), EXCLUDED_MESSAGE), ((0, 0), EXCLUDED_MESSAGE),
        (pt(1), DIMENSION_MESSAGE), ([1], DIMENSION_MESSAGE)],
        ids=["excluded", "excluded-int", "dimension", "dimension-list"])
    @pytest.mark.parametrize("wrap", [frozenset, list])
    def test_every_route_rejects_a_bad_point_with_its_message(
            self, bad, message, wrap):
        good = pt(1, 1)
        if wrap is frozenset and type(bad) is list:
            bad = tuple(bad)  # a frozenset holds hashable points only
        a = wrap([good, bad])
        routes = [
            lambda: Q2_ORIGIN.check_set(a),
            lambda: Q2_ORIGIN.check_point(bad),
            lambda: Q2_ORIGIN.semidistance([bad], [good]),
            lambda: Q2_ORIGIN.semidistance(a, [good]),
            lambda: Q2_ORIGIN.semidistance([good], a),
        ]
        for route in routes:
            with pytest.raises(MembershipError, match=f"^{re.escape(message)}$"):
                route()

    @pytest.mark.parametrize("space", [Q1, RationalPointSpace(1, [pt(5)])])
    def test_a_malformed_coordinate_is_still_rejected(self, space):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            space.contains(("x",))
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            space.check_set(frozenset([pt(1), ("x",)]))

    def test_contains(self):
        assert Q1.contains(pt(0)) and Q1.contains((0,))
        assert not Q1.contains(pt(0, 0))
        space = RationalPointSpace(1, [pt(5)])
        assert space.contains(pt(4)) and not space.contains((5,))


def max_norm_distance(p, q):
    """The max-norm distance of two points, in ``Fraction`` arithmetic: the
    oracle of the integer kernels in src."""
    if len(p) != len(q):
        raise MalformedInputError(
            f"dimension mismatch: {len(p)} vs {len(q)}")
    return max((abs(a - b) for a, b in zip(p, q)), default=F(0))


# coordinates over coprime denominators (powers of 2, small primes and any
# denominator up to 1,000), some with numerators up to 10^300
coprime = st.builds(
    F, st.integers(-50, 50) | st.integers(-10**300, 10**300),
    st.integers(0, 10).map(lambda k: 2 ** k) | st.sampled_from([3, 5, 7])
    | st.integers(1, 1000))


def coprime_points(dim):
    """Lists of 0 to 6 points of Q^dim with ``coprime`` coordinates."""
    return st.lists(st.tuples(*[coprime] * dim), max_size=6)


def brute_semidistance(a, b):
    """max over a of min over b of the max-norm distance, enumerated."""
    if not a and not b:
        raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
    if not a:
        return F(0)
    return max(min((max_norm_distance(x, y) for y in b), default=INFINITY)
               for x in a)


class TestValidateOnce:
    """The distance functions check each argument once, at entry."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The points ``RationalPointSpace.check_point`` has been asked."""
        calls = []
        check_point = RationalPointSpace.check_point

        def counting(space, p):
            calls.append(p)
            return check_point(space, p)

        monkeypatch.setattr(RationalPointSpace, "check_point", counting)
        return calls

    @staticmethod
    def loose(points):
        """The same points as lists with int coordinates where whole."""
        return [[int(c) if c.denominator == 1 else c for c in p]
                for p in points]

    def test_semidistance_checks_each_side_once(self, checked):
        a = [pt(0, 1), pt(2, 3), pt(F(1, 2), 5)]
        b = [pt(1, 1), pt(4, 0), pt(-1, F(3, 4)), pt(7, 7)]
        for x, y in ((a, b), (self.loose(a), self.loose(b)),
                     (frozenset(a), frozenset(b))):
            checked.clear()
            Q2_ORIGIN.semidistance(x, y)
            assert len(checked) <= len(a) + len(b)

    def test_point_to_set_semidistance_checks_each_argument_once(self, checked):
        a = [pt(1, 1), pt(4, 0), pt(-1, F(3, 4)), pt(7, 7)]
        for x, y in ((pt(0, 1), a), ([0, 1], self.loose(a)),
                     (pt(0, 1), frozenset(a))):
            checked.clear()
            Q2_ORIGIN.semidistance([x], y)
            assert len(checked) <= 1 + len(a)

    def test_agree_with_brute_force_on_random_sets(self):
        rng = random.Random(17)
        for _ in range(300):
            dim = rng.choice((1, 2))
            space = RationalPointSpace(dim, [(F(99),) * dim])

            def draw():
                return {tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                              for _ in range(dim))
                        for _ in range(rng.randint(0, 3))}

            a, b, x = draw(), draw(), draw() or {(F(0),) * dim}
            x = next(iter(x))
            if a or b:
                expected = brute_semidistance(a, b)
                assert space.semidistance(frozenset(a), frozenset(b)) \
                    == expected
                assert space.semidistance(self.loose(a), self.loose(b)) \
                    == expected
            nearest = min((max_norm_distance(x, y) for y in b),
                          default=INFINITY)
            assert space.semidistance([x], frozenset(b)) == nearest
            assert space.semidistance([list(x)], self.loose(b)) == nearest
        # the empty-set conventions are among the draws
        assert Q1.semidistance(frozenset(), frozenset([pt(1)])) == 0
        assert Q1.semidistance([pt(1)], frozenset()) == INFINITY
        assert Q1.semidistance([pt(1)], frozenset()) == INFINITY

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        st.just(dim), coprime_points(dim), coprime_points(dim))))
    def test_integer_kernel_matches_the_fraction_oracle(self, case):
        dim, a, b = case
        space = RationalPointSpace(dim)
        if not a and not b:
            with pytest.raises(UndefinedCaseError):
                space.semidistance(a, b)
            return
        expected = brute_semidistance(a, b)
        for x, y in ((a, b), (frozenset(a), frozenset(b))):
            got = space.semidistance(x, y)
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("empty", [frozenset(), []])
    def test_both_empty_is_still_undefined(self, empty):
        with pytest.raises(UndefinedCaseError):
            Q1.semidistance(empty, empty)


class TestCompactInnerRadius:
    def test_whole_space_sentinel(self):
        m = FinitePseudoMetric.from_points([pt(0), pt(1)])
        assert compact_inner_radius(m, 0b01, 0b11) == 1

    def test_three_point_line(self):
        m = FinitePseudoMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert compact_inner_radius(m, 0b001, 0b011) == 2

    def test_preconditions(self):
        m = FinitePseudoMetric.from_points([pt(0), pt(1)])
        with pytest.raises(PreconditionError):
            compact_inner_radius(m, 0, 0b11)
        with pytest.raises(PreconditionError):
            compact_inner_radius(m, 0b11, 0b01)

    def test_glued_points_rejected_as_non_neighborhood(self):
        m = FinitePseudoMetric.from_points([pt(0), pt(0), pt(1)])
        with pytest.raises(PreconditionError):
            compact_inner_radius(m, 0b001, 0b001)  # u cuts the zero-set

    def test_ball_within_u_on_random_metrics(self):
        rng = random.Random(4)
        for _ in range(300):
            pts = [(F(rng.randint(-8, 8), rng.choice((1, 2, 4))),
                    F(rng.randint(-8, 8), rng.choice((1, 2, 4))))
                   for _ in range(rng.randint(1, 6))]
            m = FinitePseudoMetric.from_points(pts)
            u = rng.choice(m.open_sets() or [m.full_mask])
            if u == 0:
                continue
            k = 0
            for i in range(m.n):
                if u >> i & 1 and rng.random() < 0.6:
                    k |= 1 << i
            if k == 0:
                k = u & -u
            delta = compact_inner_radius(m, k, u)
            assert delta > 0
            ball = sum(1 << y for y in range(m.n)
                       if m.point_to_mask_distance(y, k) < delta)
            assert ball & ~u == 0

    def test_broken_postcondition_raises_under_python_O(self):
        # a distance that puts every point in the ball of k, the point
        # outside u too; the check must not be an assert, which -O strips
        code = (
            "from limitset_lab.pseudometric_core import (FinitePseudoMetric,"
            " compact_inner_radius)\n"
            "m = FinitePseudoMetric([[0, 1], [1, 0]])\n"
            "m.point_to_mask_distance = lambda x, mask: int(mask != 0b01)\n"
            "try:\n"
            "    compact_inner_radius(m, 0b01, 0b01)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
        src = str(Path(limitset_lab.__file__).parent.parent)
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "the delta-ball of k leaves u\n"


# -- Kuratowski limits ---------------------------------------------------------

def kuratowski_horizon_oracle(net, horizon=96):
    """Data-driven (limsup, liminf) over the candidate grid.

    Works purely on the unrolled set sequence: detects exact set
    periodicity first; otherwise classifies each candidate of the space
    (points the ground excludes are never candidates) by its distance
    sequence on the tail window as certified decay (all ratios at most
    15/16, so the limit is zero) or as bounded away from zero.  Exact for
    the generated rule families: ratios of true members are at most 3/4
    and plateaus of non-members exceed 15/16 inside the window.
    """
    sets = [net.at(n) for n in range(horizon + 1)]
    w0 = max(len(net.preperiod), horizon // 2)

    for p in range(1, 9):
        if all(sets[n + p] == sets[n] for n in range(8, horizon + 1 - p)):
            phases = [sets[n] for n in range(horizon + 1 - p, horizon + 1)]
            limsup = frozenset().union(*phases)
            liminf = frozenset(y for y in limsup
                               if all(y in ph for ph in phases))
            return limsup, liminf

    grid = set()
    for s in net.preperiod:
        grid |= s
    rule = net.tail
    if isinstance(rule, AffineEscape):
        grid.add(rule.c)
    else:
        grid.add(rule.a)
        grid.update(rule.targets)
    grid -= net.ground.excluded
    theta = F(15, 16)
    limsup, liminf = set(), set()
    for y in grid:
        dists = [_dist_to_set(y, sets[n]) for n in range(w0, horizon + 1)]
        if all(d == 0 for d in dists):
            limsup.add(y)
            liminf.add(y)
            continue
        decays = all(dists[i + 1] < dists[i] and dists[i + 1] <= theta * dists[i]
                     for i in range(len(dists) - 1))
        if decays:
            limsup.add(y)
            liminf.add(y)
    return frozenset(limsup), frozenset(liminf)


def _dist_to_set(y, s):
    return min(max(abs(a - b) for a, b in zip(y, p)) for p in s)


@st.composite
def pooled_cycle_nets(draw):
    """Periodic nets over Q^1 or Q^2 whose sets are drawn from a pool of two
    or three points, so that the nonempty phases overlap and liminf is often
    nonempty and strictly inside limsup (in about a third of the draws)."""
    dim = draw(st.integers(1, 2))
    pool = st.sampled_from(draw(st.lists(st.tuples(*[rational] * dim),
                                         min_size=2, max_size=3, unique=True)))
    pre = draw(st.lists(st.frozensets(pool), max_size=2))
    cycle = draw(st.lists(st.frozensets(pool, min_size=1), min_size=1,
                          max_size=4))
    return SubsetNet.over_znn(RationalPointSpace(dim), pre,
                              Periodic(tuple(cycle)))


class TestKuratowskiLimits:
    def test_constant_net(self):
        e = frozenset({pt(1), pt(2)})
        net = SubsetNet.over_znn(Q1, [], Periodic((e,)))
        assert kuratowski_limits(net) == (e, e)

    def test_alternating_signs(self):
        net = SubsetNet.over_znn(
            Q1, [], Periodic((frozenset({pt(-1)}), frozenset({pt(1)}))))
        limsup, liminf = kuratowski_limits(net)
        assert limsup == {pt(-1), pt(1)}
        assert liminf == frozenset()
        assert kuratowski_horizon_oracle(net) == (limsup, liminf)

    def test_halving_toward_excluded_origin(self):
        space = RationalPointSpace(1, [pt(0)])
        net = SubsetNet.over_znn(space, [],
                                 GeometricConverge(pt(0), pt(1), F(1, 2)))
        limsup, liminf = kuratowski_limits(net)
        assert limsup == frozenset() and liminf == frozenset()
        assert kuratowski_horizon_oracle(net) == (limsup, liminf)

    def test_geometric_with_included_limit(self):
        net = SubsetNet.over_znn(Q1, [],
                                 GeometricConverge(pt(0), pt(1), F(-1, 2)))
        assert kuratowski_limits(net) == (frozenset({pt(0)}),
                                          frozenset({pt(0)}))

    def test_escape_has_empty_limits(self):
        net = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert kuratowski_limits(net) == (frozenset(), frozenset())

    def test_empty_phase_kills_liminf(self):
        net = SubsetNet.over_znn(
            Q1, [], Periodic((frozenset({pt(2)}), frozenset())))
        limsup, liminf = kuratowski_limits(net)
        assert limsup == {pt(2)} and liminf == frozenset()

    def test_agrees_with_horizon_oracle_on_rule_families(self):
        rng = random.Random("kuratowski-oracle")
        for i in range(240):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            limsup, liminf = kuratowski_limits(net)
            assert kuratowski_horizon_oracle(net) == (limsup, liminf)
            assert liminf <= limsup

    def test_agrees_with_horizon_oracle_on_the_verify_stream(self):
        # the nets the verify suites draw, round-robin over the families
        for net in rule_net_stream(random.Random("kuratowski-stream"), 400):
            assert kuratowski_horizon_oracle(net) == kuratowski_limits(net)

    @settings(max_examples=300, deadline=None)
    @given(pooled_cycle_nets())
    def test_agrees_with_horizon_oracle_on_pooled_cycles(self, net):
        limsup, liminf = kuratowski_limits(net)
        assert kuratowski_horizon_oracle(net) == (limsup, liminf)
        assert liminf <= limsup

    def test_liminf_strictly_inside_limsup(self):
        # a liminf strictly between the empty set and limsup, which the
        # rule-net stream never draws
        net = SubsetNet.over_znn(Q1, [], Periodic((
            frozenset({pt(1), pt(2)}), frozenset({pt(1), pt(3)}))))
        assert kuratowski_limits(net) == ({pt(1), pt(2), pt(3)}, {pt(1)})
        assert kuratowski_horizon_oracle(net) == kuratowski_limits(net)

    def test_liminf_hashes_no_point(self, monkeypatch):
        # three overlapping 2-D phases: the liminf reads the hashes the
        # phase frozensets store, and hashes no coordinate again
        phases = (frozenset({pt(0, 0), pt(F(1, 2), 3), pt(2, F(-1, 3))}),
                  frozenset({pt(0, 0), pt(2, F(-1, 3)), pt(5, 5)}),
                  frozenset({pt(2, F(-1, 3)), pt(0, 0), pt(F(1, 2), 3)}))
        net = SubsetNet.over_znn(RationalPointSpace(2), [], Periodic(phases))
        calls = []
        fraction_hash = F.__hash__

        def counting(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__hash__", counting)
        hash(pt(7, 7))
        assert len(calls) == 2  # the count sees tuple hashing
        calls.clear()
        limsup, liminf = kuratowski_limits(net)
        assert calls == []
        monkeypatch.undo()
        assert liminf == {pt(0, 0), pt(2, F(-1, 3))}
        assert limsup == phases[0] | phases[1]

    def test_wrong_backend_rejected(self):
        from limitset_lab.finite_topology import SIERPINSKI
        net = SubsetNet.over_znn(SIERPINSKI, [], Periodic((0b01,)))
        with pytest.raises(PreconditionError):
            kuratowski_limits(net)


class TestValidation:
    @pytest.mark.parametrize("dim", [True, 1.5, 2.0, "2", 0])
    def test_dimension_must_be_a_positive_int(self, dim):
        with pytest.raises(MalformedInputError,
                           match="^dimension must be a positive int$"):
            RationalPointSpace(dim)

    def test_metric_axioms_checked(self):
        with pytest.raises(MalformedInputError):
            FinitePseudoMetric([[0, 5], [4, 0]])  # asymmetric
        with pytest.raises(MalformedInputError):
            FinitePseudoMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle
        with pytest.raises(MalformedInputError):
            FinitePseudoMetric([[1]])  # diagonal

    def test_pseudo_allows_zero_gluing(self):
        m = FinitePseudoMetric([[0, 0], [0, 0]])
        assert m.minimal_open(0) == 0b11

    def test_metric_topology_of_glued_points(self):
        m = FinitePseudoMetric.from_points([pt(0), pt(0), pt(3)])
        assert m.rows == (0b011, 0b011, 0b100)


class FractionOracleMetric(FinitePseudoMetric):
    """The constructor and readers as they ran on ``Fraction`` entries, kept
    as a reference.

    Every axiom is checked with ``Fraction`` arithmetic on the matrix as
    given, ``from_points`` takes ``max_norm_distance`` of each pair, and
    the distances to a set are mins and maxes over ``dist``.  ``scale`` and
    ``scaled``, which equality and hashing read, are set by definition.
    """

    def __init__(self, dist):
        self.n = len(dist)
        self.dist = tuple(tuple(F(x) for x in row) for row in dist)
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
                    raise MalformedInputError(
                        "distance matrix must be symmetric")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.dist[i][k] > self.dist[i][j] + self.dist[j][k]:
                        raise MalformedInputError(
                            "triangle inequality violated")
        FiniteSpace.__init__(self, [sum(1 << j for j, d in enumerate(row)
                                        if not d) for row in self.dist])
        self.scale = math.lcm(*[x.denominator
                                for row in self.dist for x in row])
        self.scaled = tuple(tuple((x * self.scale).numerator for x in row)
                            for row in self.dist)

    @classmethod
    def from_points(cls, points):
        pts = [as_point(p) for p in points]
        return cls([[max_norm_distance(p, q) for q in pts] for p in pts])

    def point_to_mask_distance(self, i, e):
        self.check_point(i)
        self.check_set(e)
        return min((self.dist[i][j] for j in range(self.n) if e >> j & 1),
                   default=INFINITY)

    def semidistance(self, a, b):
        self.check_set(a)
        self.check_set(b)
        if a == b == 0:
            raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
        return max((self.point_to_mask_distance(i, b)
                    for i in range(self.n) if a >> i & 1), default=F(0))


# large coprime denominators make the LCM scale, and the scaled ints, big
LARGE_PRIMES = (10 ** 9 + 7, 998_244_353, 2 ** 61 - 1, 2 ** 89 - 1)
small_entry = st.fractions(min_value=0, max_value=6, max_denominator=12)
large_entry = st.builds(F, st.integers(0, 10 ** 30),
                        st.sampled_from(LARGE_PRIMES))
entry = st.one_of(small_entry, large_entry)
coordinate = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30),
              st.sampled_from(LARGE_PRIMES)))
# the constructors take anything ``Fraction`` reads
as_input = st.sampled_from([
    lambda x: x,
    lambda x: int(x) if x.denominator == 1 else x,
    str,
])
PERTURBATIONS = ("none", "diagonal", "asymmetric", "negative", "triangle",
                 "ragged", "bad-entry")


@st.composite
def pseudo_metrics(draw):
    """Rational pseudo-metrics: shortest-path closures of random weights."""
    n = draw(st.integers(0, 5))
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i] = draw(entry)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@st.composite
def distance_matrices(draw):
    """Pseudo-metrics, some perturbed to break one axiom, with mixed types."""
    d = draw(pseudo_metrics())
    n = len(d)
    kind = draw(st.sampled_from(PERTURBATIONS))
    if n and kind != "none":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        delta = draw(entry.filter(bool))
        if kind == "diagonal":
            d[i][i] = delta
        elif kind == "asymmetric":
            d[i][j] += delta
        elif kind == "negative":
            d[i][j] = -delta
            if draw(st.booleans()):
                d[j][i] = -delta
        elif kind == "triangle":
            d[i][k] = d[k][i] = d[i][j] + d[j][k] + delta
        elif kind == "ragged":
            d[i] = d[i][:-1] if draw(st.booleans()) else d[i] + [F(0)]
        else:
            d[i][j] = draw(st.sampled_from(["x", None, 0.5, "1/2", True]))
    return [[draw(as_input)(x) if isinstance(x, F) else x for x in row]
            for row in d]


@st.composite
def point_lists(draw):
    """Points of one dimension with repeats, sometimes one of another."""
    dim = draw(st.sampled_from((1, 2)))
    distinct = draw(st.lists(st.tuples(*[coordinate] * dim),
                             min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(distinct), max_size=6))
    if draw(st.booleans()):
        other = draw(st.sampled_from([d for d in (0, 1, 2, 3) if d != dim]))
        pts.insert(draw(st.integers(0, len(pts))),
                   draw(st.tuples(*[coordinate] * other)))
    return [draw(st.sampled_from((list, tuple)))(
                draw(as_input)(c) for c in p) for p in pts]


def construction_outcome(build, arg):
    try:
        return build(arg)
    except (ValueError, TypeError) as exc:  # MalformedInputError included
        return type(exc), str(exc)


def fraction_view(m):
    """The distances of ``m`` as exact ``Fraction``s, read off ``scaled``."""
    return tuple(tuple(F(k, m.scale) for k in row) for row in m.scaled)


def assert_same_construction(new, old):
    """Same accept/reject and message; same distances, topology and identity."""
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert type(new) is FinitePseudoMetric
    assert fraction_view(new) == old.dist and new.rows == old.rows
    assert (new.scale, new.scaled) == (old.scale, old.scaled)
    assert all(type(v) is int for row in new.scaled for v in row)
    assert new == old and old == new and hash(new) == hash(old)


class TestIntegerConstruction:
    """The integer-matrix constructor against the ``Fraction`` reference."""

    @settings(max_examples=400, deadline=None)
    @given(distance_matrices())
    def test_matrix_agrees_with_fraction_oracle(self, dist):
        assert_same_construction(
            construction_outcome(FinitePseudoMetric, dist),
            construction_outcome(FractionOracleMetric, dist))

    @settings(max_examples=400, deadline=None)
    @given(point_lists())
    def test_from_points_agrees_with_fraction_oracle(self, points):
        assert_same_construction(
            construction_outcome(FinitePseudoMetric.from_points, points),
            construction_outcome(FractionOracleMetric.from_points, points))

    @pytest.mark.parametrize("dist, message", [
        ([[0, 1], [1]], "distance matrix is not square"),
        ([[0, 1], [1, F(1, 3)]], "diagonal must be zero"),
        ([[0, F(-1, 2)], [F(-1, 2), 0]], "distances must be nonnegative"),
        ([[0, F(1, 2)], [F(1, 3), 0]], "distance matrix must be symmetric"),
        ([[0, F(1, 3), 1], [F(1, 3), 0, F(1, 2)], [1, F(1, 2), 0]],
         "triangle inequality violated"),
        # the first offending entry decides: row 0 is negative before
        # row 1 breaks the diagonal
        ([[0, -1], [-1, 5]], "distances must be nonnegative"),
        # and a negative entry is named before its asymmetry
        ([[0, -1], [2, 0]], "distances must be nonnegative"),
    ])
    def test_each_axiom_named(self, dist, message):
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            FinitePseudoMetric(dist)

    def test_from_points_dimension_mismatch(self):
        with pytest.raises(MalformedInputError,
                           match="^dimension mismatch: 2 vs 1$"):
            FinitePseudoMetric.from_points([pt(0, 0), pt(1, 1), pt(2)])

    def test_scale_is_the_lcm_of_the_denominators(self):
        m = FinitePseudoMetric.from_points([pt(F(1, 4)), pt(F(2, 3)),
                                            pt(F(-1, 6))])
        assert m.scale == 12
        assert m.scaled == ((0, 5, 5), (5, 0, 10), (5, 10, 0))
        assert m.point_to_mask_distance(1, 0b100) == F(5, 6)

    @pytest.mark.parametrize("points, scale, scaled", [
        ([pt(F(1, 2)), pt(F(3, 2))], 1, ((0, 1), (1, 0))),
        ([pt(F(1, 6)), pt(F(5, 6)), pt(F(1, 2))], 3,
         ((0, 2, 1), (2, 0, 1), (1, 1, 0))),
        ([pt(F(1, 4), 0), pt(F(1, 4), 0)], 1, ((0, 0), (0, 0))),
        ([], 1, ()),
    ])
    def test_from_points_divides_by_the_gcd(self, points, scale, scaled):
        # the coordinates' common denominator is not the distances' one:
        # dividing it out leaves the scale the matrix itself gives
        m = FinitePseudoMetric.from_points(points)
        same = FinitePseudoMetric(fraction_view(m))
        assert (m.scale, m.scaled) == (same.scale, same.scaled) == (scale,
                                                                    scaled)
        assert m == same and hash(m) == hash(same)


BUILDS = {"matrix": (FinitePseudoMetric, FractionOracleMetric),
          "points": (FinitePseudoMetric.from_points,
                     FractionOracleMetric.from_points)}


def call_outcome(f, *args):
    """The type and value of ``f(*args)``, or the type and message of its
    refusal."""
    try:
        value = f(*args)
    except (ValueError, TypeError) as exc:  # the library's errors included
        return type(exc), str(exc)
    return type(value), value


class TestIntegerReaders:
    """The readers of ``scaled`` against the ``Fraction`` reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(st.just("matrix"), distance_matrices()),
                     st.tuples(st.just("points"), point_lists())),
           st.data())
    def test_readers_agree_with_fraction_oracle(self, source, data):
        build, oracle_build = BUILDS[source[0]]
        m = construction_outcome(build, source[1])
        oracle = construction_outcome(oracle_build, source[1])
        assert_same_construction(m, oracle)
        if isinstance(m, tuple):
            return  # refused alike
        # masks reach one point past the space, which every reader refuses
        mask = st.integers(0, (2 << m.n) - 1)
        full = m.full_mask
        pairs = [(0, 0), (0, full), (full, 0), (full, full)] + data.draw(
            st.lists(st.tuples(mask, mask), max_size=12))
        for a, b in pairs:
            assert (call_outcome(m.semidistance, a, b)
                    == call_outcome(oracle.semidistance, a, b))
            for u in (b, a | b):  # u need not contain k; a | b does
                assert (call_outcome(compact_inner_radius, m, a, u)
                        == call_outcome(compact_inner_radius, oracle, a, u))
            for i in range(m.n + 1):
                assert (call_outcome(m.point_to_mask_distance, i, b)
                        == call_outcome(oracle.point_to_mask_distance, i, b))


def zeroset_oracle(m, i):
    """Points at distance 0 from i, read off the distance matrix."""
    return sum(1 << j for j in range(m.n) if m.scaled[i][j] == 0)


def zeroset_is_open(m, u):
    """The metric topology by definition: every point's zero-set lies in u."""
    return all(zeroset_oracle(m, i) & ~u == 0
               for i in range(m.n) if u >> i & 1)


class TestMetricTopology:
    """The inherited finite-space topology against the zero-set definition."""

    @staticmethod
    def check(m):
        assert m.open_sets() == [u for u in range(1 << m.n)
                                 if zeroset_is_open(m, u)]
        for i in range(m.n):
            assert m.minimal_open(i) == zeroset_oracle(m, i)
        for e in range(1 << m.n):
            # closed sets of a partition topology are unions of zero-sets
            assert closure(m, e) == sum(1 << i for i in range(m.n)
                                        if zeroset_oracle(m, i) & e)

    def test_zero_one_metrics(self):
        for n in (1, 2, 3, 4):
            for m in zero_one_metrics(n):
                self.check(m)

    def test_random_lattice_metrics(self):
        rng = random.Random("metric-topology")
        for _ in range(200):
            dim = rng.randint(1, 2)
            self.check(FinitePseudoMetric.from_points(
                [tuple(F(rng.randint(0, 2), 2) for _ in range(dim))
                 for _ in range(rng.randint(1, 6))]))


class TestMetricEquality:
    def test_equal_distances_are_equal(self):
        a = FinitePseudoMetric([[0, F(1, 2)], [F(1, 2), 0]])
        b = FinitePseudoMetric.from_points([pt(0), pt(F(1, 2))])
        assert a == b and hash(a) == hash(b)

    def test_same_zero_sets_different_distances_differ(self):
        a = FinitePseudoMetric([[0, 1], [1, 0]])
        b = FinitePseudoMetric([[0, 2], [2, 0]])
        assert a.rows == b.rows
        assert a != b and b != a
        # the same integer matrix over another scale is another metric
        c = FinitePseudoMetric([[0, F(1, 2)], [F(1, 2), 0]])
        assert a.scaled == c.scaled and a.scale != c.scale
        assert a != c and c != a

    def test_never_equal_to_a_plain_finite_space(self):
        m = FinitePseudoMetric([[0, 1], [1, 0]])
        space = discrete_space(2)
        assert m.rows == space.rows
        assert m != space and space != m
        assert len({m, space}) == 2

    def test_from_matrix_builds_a_plain_finite_space(self):
        space = FinitePseudoMetric.from_matrix([[True]])
        assert space == FiniteSpace.from_matrix([[True]])
        assert type(space) is FiniteSpace

    def test_inherits_the_finite_space_state(self):
        m = FinitePseudoMetric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert m.full_mask == 0b111
        for _ in range(2):  # the second call reads the memo
            assert m.minimal_open_superset(0b001) == 0b011
            assert m.minimal_open_superset(0b100) == 0b100


def test_every_distance_is_a_fraction_or_infinity():
    """Each distance function, on finite inputs and on both empty-set
    conventions (d(emptyset; b) = 0, d(a; emptyset) = inf), answers an
    exact Fraction or INFINITY and nothing else."""
    answers = []
    a, b = [pt(0), pt(F(5, 2))], [pt(1), pt(-3)]
    for x in (pt(0), pt(F(7, 3))):
        answers += [Q1.semidistance([x], b), Q1.semidistance([x], [])]
    answers += [Q1.semidistance(a, b), Q1.semidistance([], b),
                Q1.semidistance(a, [])]
    path = FinitePseudoMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    for m in (path,
              FinitePseudoMetric.from_points([pt(0), pt(F(1, 2)), pt(0)])):
        for i in range(m.n):
            answers += [m.point_to_mask_distance(i, e) for e in range(8)]
        answers += [m.semidistance(x, y)
                    for x in range(8) for y in range(8) if x or y]
    answers += [compact_inner_radius(path, 0b001, 0b011),
                compact_inner_radius(path, 0b001, 0b111)]  # the sentinel 1
    g = CellGrid(2, 4)
    answers += [g.semidistance(x, y)
                for x, y in ((0b1, 1 << 15), (0, 0b1), (0b1, 0))]
    for flow, init in ((DiscreteSemiflow("rotation", (F(1, 3),)), 0b1),
                       (DiscreteSemiflow("table", table=(0,) * 4), 0b11)):
        grid = CellGrid(1, 4)
        answers += [d for _, d in omega_limit_cells(grid, flow, init).trace]
    assert INFINITY in answers and F(0) in answers
    for d in answers:
        assert type(d) is F or d == INFINITY, repr(d)


def test_extended_rational_arithmetic():
    """Distances are Fractions or INFINITY, which compare exactly."""
    assert INFINITY + 1 == INFINITY
    assert F(3) + F(1, 2) == F(7, 2)
    assert F(3) < INFINITY and not INFINITY < F(3)
    assert not INFINITY < INFINITY
    assert max(F(1), INFINITY) == INFINITY
    assert F(10**400) < INFINITY  # beyond every float, still below inf
    assert F(0) != INFINITY
