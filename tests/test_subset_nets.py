import dataclasses
import random
import time
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitset_lab.errors import (MalformedInputError, MembershipError,
                                 PreconditionError, UnsupportedRuleError)
from limitset_lab.finite_topology import (SIERPINSKI, FiniteSpace, closure,
                                          discrete_space, enumerate_spaces,
                                          indiscrete_space, top_element)
from limitset_lab.pseudometric_core import (FinitePseudoMetric,
                                            RationalPointSpace)
from limitset_lab.rationals import scale_points
from limitset_lab.subset_nets import (LOST, ZNN, AffineEscape,
                                      FiniteIndexNet, GeometricConverge,
                                      NetAnalysis, Periodic, SubsetNet,
                                      TailSummary, analyze,
                                      below_iff_semidistance, cluster_set,
                                      converges_from_above,
                                      converges_from_below, eventually_in,
                                      frequently_in,
                                      is_asymptotically_seq_compact,
                                      is_eventually_lagrange_stable,
                                      is_limit_set_compact,
                                      is_weakly_asymptotically_seq_compact,
                                      kuratowski_limits, limit_set,
                                      limit_set_horizon_oracle,
                                      semidistance_convergence_check,
                                      sequential_limit_set,
                                      _check_geometric_avoids_excluded,
                                      _geometric_exponent, _line_parameter)
from limitset_lab.theoremlab import (ESCAPE_STEPS, GEOMETRIC_RATIOS,
                                     RULE_FAMILIES,
                                     describe_net, iter_directed_posets,
                                     iter_periodic_cycles, random_point,
                                     random_rule_net, random_space)

from test_pseudometric_core import max_norm_distance
from test_theoremlab import iter_periodic_nets

Q1 = RationalPointSpace(1)
D2 = discrete_space(2)


def pt(*coords):
    return tuple(F(c) for c in coords)


def alternating_net(space=D2):
    return SubsetNet.over_znn(space, [], Periodic((0b01, 0b10)))


class TestConstruction:
    def test_sets_must_live_in_ground(self):
        with pytest.raises(PreconditionError):
            SubsetNet.over_znn(D2, [0b100], Periodic((0b01,)))
        space = RationalPointSpace(1, [pt(0)])
        with pytest.raises(MembershipError):
            SubsetNet.over_znn(space, [frozenset({pt(0)})],
                               Periodic((frozenset(),)))

    def test_periodic_rule_of_canonical_sets_is_kept(self):
        space = RationalPointSpace(1, [pt(0)])
        cycle = (frozenset({pt(1)}), frozenset({pt(2), pt(F(1, 2))}))
        rule = Periodic(cycle)
        net = SubsetNet.over_znn(space, [cycle[0]], rule)
        assert net.tail is rule and net.preperiod[0] is cycle[0]
        loose = Periodic((frozenset({(1,)}), cycle[1]))
        net = SubsetNet.over_znn(space, [], loose)
        assert net.tail is not loose and net.tail == rule
        assert net.tail.cycle[1] is cycle[1]

    def test_escape_tails_need_metric_ground(self):
        with pytest.raises(UnsupportedRuleError):
            SubsetNet.over_znn(D2, [], AffineEscape(pt(0), pt(1)))

    def test_affine_tail_collision_with_excluded_point(self):
        space = RationalPointSpace(1, [pt(5)])
        with pytest.raises(MalformedInputError):
            SubsetNet.over_znn(space, [], AffineEscape(pt(0), pt(1)))
        # collision before the tail starts is fine
        net = SubsetNet.over_znn(space, [frozenset({pt(1)})] * 6,
                                 AffineEscape(pt(0), pt(1)))
        assert net.at(7) == frozenset({pt(7)})

    def test_geometric_tail_collision_with_excluded_point(self):
        space = RationalPointSpace(1, [(F(1, 4),)])
        with pytest.raises(MalformedInputError):
            SubsetNet.over_znn(space, [],
                               GeometricConverge(pt(0), pt(1), F(1, 2)))

    def test_geometric_collision_beyond_the_horizon_window(self):
        # the excluded point sits 2^-100 from the limit: only the adaptive
        # analytic continuation can see the collision
        space = RationalPointSpace(1, [(F(1, 2 ** 100),)])
        with pytest.raises(MalformedInputError):
            SubsetNet.over_znn(space, [],
                               GeometricConverge(pt(0), pt(1), F(1, 2)))

    def test_trap_construction_is_legal(self):
        space = RationalPointSpace(1, [pt(0)])
        net = SubsetNet.over_znn(space, [],
                                 GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert net.at(3) == frozenset({(F(1, 8),)})

    def test_geometric_ratio_range(self):
        with pytest.raises(MalformedInputError):
            SubsetNet.over_znn(Q1, [], GeometricConverge(pt(0), pt(1), F(1)))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.builds(F, st.integers(-2000, 2000),
                               st.integers(1, 1000)),
                     st.integers(-2, 2),
                     st.sampled_from([0.5, -0.5, 0.0, 1.0, -1.5])))
    def test_geometric_ratio_range_read_on_integers(self, r):
        # reduce reads 0 < |r| < 1 off r's numerator and denominator: it
        # accepts exactly the ratios the Fraction predicate accepts
        rule = GeometricConverge(pt(0), pt(1), r)
        if 0 < abs(F(r)) < 1:
            assert rule.reduce(Q1, 0)[0].r == F(r)
        else:
            with pytest.raises(MalformedInputError,
                               match=r"^geometric ratio needs 0 < \|r\| < 1$"):
                rule.reduce(Q1, 0)

    def test_geometric_reduce_hashes_a_once(self, monkeypatch):
        # over a 2-D ground excluding points on and off the branch, a
        # convergent and a trapped tail hash a's coordinates once, for the
        # limit set, and make no Fraction comparison or abs call
        a, b = pt(F(1, 2), -1), pt(F(5, 2), 1)
        on_branch = pt(F(7, 2), 2)  # line parameter 3/2, no power of r
        names = ("__hash__", "__abs__", "__lt__", "__gt__", "__le__",
                 "__ge__")
        for excluded in ([on_branch, pt(5, 5)], [on_branch, a]):
            ground = RationalPointSpace(2, excluded)
            rule = GeometricConverge(a, b, F(-2, 3))
            calls = {name: [] for name in names}
            for name in names:
                def counting(self, *args, _real=getattr(F, name),
                             _seen=calls[name]):
                    _seen.append(self)
                    return _real(self, *args)
                monkeypatch.setattr(F, name, counting)
            _, summary = rule.reduce(ground, 0)
            monkeypatch.undo()
            assert calls.pop("__hash__") == list(a)
            assert calls == {name: [] for name in names[1:]}
            assert summary.lost == (a in excluded)

    def test_unknown_tail_rule_is_unsupported(self):
        for tail in (object(), (0b01,), None):
            with pytest.raises(UnsupportedRuleError, match="unknown tail rule"):
                SubsetNet.over_znn(Q1, [], tail)
        with pytest.raises(UnsupportedRuleError, match="unknown tail rule"):
            SubsetNet.over_znn(D2, [0b01], object())

    def test_rule_errors_keep_their_order(self):
        # the rational-backend guard, then dimension, step and ratio
        # checks, then the exclusion proof
        bad_geometric = GeometricConverge(pt(0, 0), pt(1), F(2))
        with pytest.raises(UnsupportedRuleError):
            SubsetNet.over_znn(D2, [], bad_geometric)
        with pytest.raises(UnsupportedRuleError):
            SubsetNet.over_znn(D2, [], AffineEscape(pt(0, 0), pt(0)))
        with pytest.raises(MalformedInputError, match="wrong dimension"):
            SubsetNet.over_znn(Q1, [], bad_geometric)
        with pytest.raises(MalformedInputError, match="wrong dimension"):
            SubsetNet.over_znn(Q1, [], AffineEscape(pt(0, 0), pt(0)))
        space = RationalPointSpace(1, [pt(0), pt(1)])
        with pytest.raises(MalformedInputError, match=r"0 < \|r\| < 1"):
            SubsetNet.over_znn(space, [], GeometricConverge(pt(0), pt(1),
                                                            F(2)))
        with pytest.raises(MalformedInputError, match="nonzero"):
            SubsetNet.over_znn(space, [], AffineEscape(pt(0), pt(0)))
        with pytest.raises(MalformedInputError, match="target point"):
            SubsetNet.over_znn(space, [], GeometricConverge(pt(0), (), F(2)))
        with pytest.raises(MalformedInputError, match="excluded point"):
            SubsetNet.over_znn(space, [], AffineEscape(pt(0), pt(1)))

    def test_geometric_targets_are_one_point_or_several(self):
        # reducing keeps b as the tuple of target points, made of Fractions
        for b, want in (((1,), (pt(1),)),
                        ([[1], (F(1, 2),)], (pt(1), pt(F(1, 2))))):
            rule = GeometricConverge(pt(0), b, F(1, 2))
            assert rule.targets == want
            net = SubsetNet.over_znn(Q1, [], rule)
            assert net.tail.b == want == net.tail.targets
            assert all(type(c) is F for t in net.tail.b for c in t)

    def test_empty_periodic_cycle_is_refused(self):
        with pytest.raises(MalformedInputError, match="cycle must be nonempty"):
            Periodic(())

    def test_assignment_must_cover_the_finite_index(self):
        for assignment in ([0, 1], [0, 1, 2, 3]):
            with pytest.raises(MalformedInputError,
                               match="every index element"):
                SubsetNet.over_finite(D2, TOP_PAIR, assignment)

    def test_finite_index_must_be_directed(self):
        undirected = FiniteSpace.from_matrix([[True, False], [False, True]])
        with pytest.raises(PreconditionError):
            SubsetNet.over_finite(D2, undirected, [0b01, 0b10])


TRAP_SPACE = RationalPointSpace(1, [pt(0)])
# 0 <= 1, 2 and 1 ~ 2: the top class holds both 1 and 2
TOP_PAIR = FiniteSpace([0b111, 0b110, 0b110])


class TestTailSummary:
    """Construction reduces every net to one of three tail shapes."""

    def test_periodic_over_finite_space(self):
        net = SubsetNet.over_znn(D2, [0b11], Periodic((0b01, 0b10)))
        assert net.summary == TailSummary((0b01, 0b10), 0b11, True)

    def test_periodic_over_rationals(self):
        one, two = frozenset({pt(1)}), frozenset({pt(1), pt(2)})
        net = SubsetNet.over_znn(Q1, [frozenset({pt(9)})], Periodic((one, two)))
        assert net.summary == TailSummary((one, two), two, True)

    def test_finite_index_phases_are_the_top_class(self):
        net = SubsetNet.over_finite(D2, TOP_PAIR, [0b11, 0b01, 0b00])
        assert net.summary == TailSummary((0b01, 0b00), 0b01, True)
        metric = SubsetNet.over_finite(
            Q1, TOP_PAIR, [[pt(5)], [pt(1)], [pt(1), pt(2)]])
        assert metric.summary == TailSummary(
            (frozenset({pt(1)}), frozenset({pt(1), pt(2)})),
            frozenset({pt(1), pt(2)}), True)

    def test_constant_geometric_recurs_on_its_limit(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(2), pt(2), F(1, 2)))
        limit = frozenset({pt(2)})
        assert net.summary == TailSummary((limit,), limit, True)

    def test_geometric_converges_to_a_point_of_the_space(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(0), pt(1), F(1, 2)))
        limit = frozenset({pt(0)})
        assert net.summary == TailSummary((limit,), limit, False)

    def test_trap_and_affine_tails_are_lost(self):
        trap = SubsetNet.over_znn(TRAP_SPACE, [],
                                  GeometricConverge(pt(0), pt(1), F(1, 2)))
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert trap.summary == escape.summary == LOST
        assert trap.summary.lost and not trap.summary.recurs

    def test_lost_tails_give_identical_analyses(self):
        trap = SubsetNet.over_znn(TRAP_SPACE, [frozenset({pt(3)})],
                                  GeometricConverge(pt(0), pt(1), F(1, 2)))
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert analyze(trap) == analyze(escape)
        assert analyze(escape).limit_set == frozenset()
        assert not analyze(escape).lagrange_stable

    def test_finite_index_kuratowski_limits_read_the_top_class(self):
        net = SubsetNet.over_finite(
            Q1, TOP_PAIR, [[pt(5)], [pt(1)], [pt(1), pt(2)]])
        assert kuratowski_limits(net) == (frozenset({pt(1), pt(2)}),
                                          frozenset({pt(1)}))


class TestLimitSet:
    def test_alternating_discrete(self):
        net = alternating_net()
        assert limit_set(net) == 0b11
        assert limit_set_horizon_oracle(net, h=3, h2=10) == 0b11

    def test_constant_open_point_in_sierpinski(self):
        net = SubsetNet.over_znn(SIERPINSKI, [], Periodic((0b10,)))
        assert limit_set(net) == closure(SIERPINSKI, 0b10) == 0b11

    def test_escaping_net_has_empty_limit_set(self):
        net = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert limit_set(net) == frozenset()

    def test_preperiod_does_not_matter(self):
        net = SubsetNet.over_znn(D2, [0b11, 0b10], Periodic((0b01,)))
        assert limit_set(net) == 0b01

    def test_horizon_oracle_examples(self):
        constant = SubsetNet.over_znn(SIERPINSKI, [], Periodic((0b10,)))
        for h in (1, 3, 6):
            assert limit_set_horizon_oracle(constant, h=h) == 0b11
        with pytest.raises(PreconditionError):
            limit_set_horizon_oracle(alternating_net(), h=9, h2=3)

    def test_horizon_oracle_refuses_an_inexact_window(self):
        alternating = alternating_net()  # L = {0, 1}
        with pytest.raises(PreconditionError):
            limit_set_horizon_oracle(alternating, h=3, h2=3)
        assert limit_set_horizon_oracle(alternating, h=3, h2=4) == 0b11
        late = SubsetNet.over_znn(D2, [0b11] * 3, Periodic((0b01,)))
        assert limit_set(late) == 0b01
        for h in (-1, 0, 1, 2):
            with pytest.raises(PreconditionError):
                limit_set_horizon_oracle(late, h=h)
        assert limit_set_horizon_oracle(late, h=3, h2=3) == 0b01
        constant = SubsetNet.over_znn(SIERPINSKI, [], Periodic((0b10,)))
        with pytest.raises(PreconditionError):
            limit_set_horizon_oracle(constant, h=-1)

    def test_horizon_oracle_refuses_non_periodic_tails(self):
        # truncated unions of an escape are never empty ({8, ..., 12} for
        # the defaults), although its limit set is; a geometric tail's
        # limit point appears in no truncated union
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        geometric = SubsetNet.over_znn(
            Q1, [], GeometricConverge(pt(0), pt(1), F(1, 2)))
        for net in (escape, geometric):
            with pytest.raises(PreconditionError):
                limit_set_horizon_oracle(net)

    def test_oracle_equals_symbolic_on_exhaustive_periodic_nets(self):
        for n in (1, 2):
            for space in enumerate_spaces(n):
                for net in iter_periodic_nets(space, max_cycle=3, max_pre=2):
                    assert limit_set(net) == limit_set_horizon_oracle(net)

    def test_finite_index_nets_close_the_top_tail(self):
        rng = random.Random(11)
        posets = list(iter_directed_posets(4))
        spaces = [s for n in (1, 2) for s in enumerate_spaces(n)]
        for order in posets:
            for space in spaces:
                for _ in range(4):
                    assignment = [rng.randrange(1 << space.n)
                                  for _ in range(order.n)]
                    net = SubsetNet.over_finite(space, order, assignment)
                    top = top_element(order)
                    union = 0
                    for t in range(order.n):
                        if order.rows[top] >> t & 1:
                            union |= assignment[t]
                    assert limit_set(net) == closure(space, union)
                    assert limit_set(net) == limit_set_horizon_oracle(net)


class TestSequentialLimitSet:
    def test_geometric_included_limit(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(2), pt(3), F(1, 3)))
        assert sequential_limit_set(net) == frozenset({pt(2)})

    def test_escape_empty(self):
        net = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert sequential_limit_set(net) == frozenset()

    def test_equals_limit_set_on_rule_nets(self):
        rng = random.Random("lseq")
        for i in range(120):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            assert sequential_limit_set(net) == limit_set(net)

    def test_equals_limit_set_on_finite_backends(self):
        for space in enumerate_spaces(2):
            for net in iter_periodic_nets(space):
                assert sequential_limit_set(net) == limit_set(net)


class TestConvergesFromAbove:
    def test_whole_space_always_attracts(self):
        assert converges_from_above(alternating_net(), 0b11)
        metric = SubsetNet.over_znn(Q1, [],
                                    Periodic((frozenset({pt(1)}),)))
        assert converges_from_above(metric, [pt(1)])

    def test_alternating_fails_on_half(self):
        assert not converges_from_above(alternating_net(), 0b01)

    def test_indiscrete_everything_attracts(self):
        ind = indiscrete_space(2)
        for cycle in product(range(4), repeat=2):
            net = SubsetNet.over_znn(ind, [], Periodic(cycle))
            for a in (0b01, 0b10, 0b11):
                assert converges_from_above(net, a)

    def test_empty_target_needs_eventually_empty_tails(self):
        empty_net = SubsetNet.over_znn(D2, [0b11], Periodic((0,)))
        assert converges_from_above(empty_net, 0)
        assert not converges_from_above(alternating_net(), 0)
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert not converges_from_above(escape, [])

    def test_geometric_attracted_by_limit(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert converges_from_above(net, [pt(0)])
        assert not converges_from_above(net, [pt(1)])


class TestSemidistanceCriteria:
    def test_constant_net_attracted_by_itself(self):
        k = frozenset({pt(1), pt(2)})
        net = SubsetNet.over_znn(Q1, [], Periodic((k,)))
        assert semidistance_convergence_check(net, k)

    def test_geometric_distance_sequence(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert semidistance_convergence_check(net, [pt(0)])

    def test_escape_fails_every_compact(self):
        net = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert not semidistance_convergence_check(net, [pt(0), pt(10)])

    def test_finite_grounds_are_refused(self):
        for net in (alternating_net(),
                    SubsetNet.over_finite(D2, TOP_PAIR, [0b01, 0b10, 0b11])):
            with pytest.raises(PreconditionError, match="rational backend"):
                semidistance_convergence_check(net, 0b01)

    def test_empty_target_rejected(self):
        net = SubsetNet.over_znn(Q1, [], Periodic((frozenset({pt(0)}),)))
        with pytest.raises(PreconditionError):
            semidistance_convergence_check(net, [])

    def test_agrees_with_from_above_on_compact_targets(self):
        rng = random.Random("abovecheck")
        for i in range(160):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            candidates = [limit_set(net), frozenset({pt(0)} if net.ground.dim == 1
                                                    else {pt(0, 0)})]
            for k in candidates:
                k = frozenset(p for p in k if net.ground.contains(p))
                if not k:
                    continue
                assert (semidistance_convergence_check(net, k)
                        == converges_from_above(net, k))


class TestConvergesFromBelow:
    def test_empty_target_vacuous(self):
        assert converges_from_below(alternating_net(), 0)

    def test_alternation_is_not_eventual(self):
        assert not converges_from_below(alternating_net(), 0b01)

    def test_geometric_below_to_limit(self):
        net = SubsetNet.over_znn(Q1, [], GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert converges_from_below(net, [pt(0)])

    def test_below_examples_with_semidistance(self):
        k = frozenset({pt(3)})
        constant = SubsetNet.over_znn(Q1, [], Periodic((k,)))
        assert below_iff_semidistance(constant, k) == (True, True)
        alternating = SubsetNet.over_znn(
            Q1, [], Periodic((frozenset({pt(-1)}), frozenset({pt(1)}))))
        assert below_iff_semidistance(alternating, [pt(-1), pt(1)]) == \
            (False, False)
        two_branch = SubsetNet.over_znn(
            Q1, [], GeometricConverge(pt(0), (pt(-1), pt(1)), F(1, 2)))
        assert below_iff_semidistance(two_branch, [pt(0)]) == \
            (True, True)

    def test_below_iff_semidistance_random_agreement(self):
        rng = random.Random("belowcheck")
        for i in range(160):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            k = limit_set(net)
            if not k:
                continue
            below, dist = below_iff_semidistance(net, k)
            assert below == dist

    def test_below_implies_inside_limit_set_finite_sweep(self):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                for net in iter_periodic_nets(space, max_cycle=3, max_pre=1):
                    ls = limit_set(net)
                    for a in range(1 << n):
                        if converges_from_below(net, a):
                            assert a & ~ls == 0


class TestCompactnessVerdicts:
    def test_lagrange_examples(self):
        periodic = SubsetNet.over_znn(Q1, [], Periodic((frozenset({pt(1)}),)))
        assert is_eventually_lagrange_stable(periodic)
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert not is_eventually_lagrange_stable(escape)
        trap_space = RationalPointSpace(1, [pt(0)])
        trap = SubsetNet.over_znn(trap_space, [],
                                  GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert not is_eventually_lagrange_stable(trap)

    def test_asymptotic_seq_compact_examples(self):
        periodic = SubsetNet.over_znn(Q1, [], Periodic((frozenset({pt(1)}),)))
        assert is_asymptotically_seq_compact(periodic)
        included = SubsetNet.over_znn(Q1, [],
                                      GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert is_asymptotically_seq_compact(included)
        trap_space = RationalPointSpace(1, [pt(0)])
        trap = SubsetNet.over_znn(trap_space, [],
                                  GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert not is_asymptotically_seq_compact(trap)

    def test_weak_equals_strong_on_rule_nets(self):
        rng = random.Random("weakstrong")
        for i in range(160):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            strong = is_asymptotically_seq_compact(net)
            weak = is_weakly_asymptotically_seq_compact(net)
            assert weak == strong
            if strong:
                assert weak  # the definitional implication

    def test_limit_set_compact_examples(self):
        constant = SubsetNet.over_znn(D2, [], Periodic((0b01,)))
        assert is_limit_set_compact(constant)
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert not is_limit_set_compact(escape)
        trap_space = RationalPointSpace(1, [pt(0)])
        trap = SubsetNet.over_znn(trap_space, [],
                                  GeometricConverge(pt(0), pt(1), F(1, 2)))
        assert not is_limit_set_compact(trap)

    def test_finite_backend_always_lagrange_and_compact(self):
        for space in enumerate_spaces(2):
            for net in iter_periodic_nets(space, nonempty=True):
                assert is_eventually_lagrange_stable(net)
                assert is_asymptotically_seq_compact(net)
                assert is_limit_set_compact(net)


class TestClusterAndFrequently:
    def test_constant_point_net_cluster_is_closure(self):
        net = SubsetNet.over_znn(SIERPINSKI, [], Periodic((0b10,)))
        assert cluster_set(net) == 0b11  # non-T1: closure points cluster
        metric = SubsetNet.over_znn(Q1, [], Periodic((frozenset({pt(2)}),)))
        assert cluster_set(metric) == frozenset({pt(2)})

    def test_alternating_singletons(self):
        assert cluster_set(alternating_net()) == 0b11

    def test_escape_has_no_cluster_points(self):
        net = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        assert cluster_set(net) == frozenset()

    def test_eventually_and_frequently_need_singleton_values(self):
        nets = [SubsetNet.over_znn(D2, [], Periodic((0b01, 0b11))),
                SubsetNet.over_finite(D2, TOP_PAIR, [0b01, 0b11, 0b10])]
        for net in nets:
            for verdict in (eventually_in, frequently_in):
                with pytest.raises(PreconditionError, match="singleton-valued"):
                    verdict(net, 0b11)

    def test_non_singleton_rejected(self):
        net = SubsetNet.over_znn(D2, [], Periodic((0b11,)))
        with pytest.raises(PreconditionError):
            cluster_set(net)

    def test_cluster_matches_direct_definition_at_horizon(self):
        # direct definition: y clusters iff the net visits the minimal
        # neighborhood of y inside the final full-cycle window
        horizon = 24
        for space in enumerate_spaces(2):
            singletons = [1 << x for x in range(space.n)]
            for cyc_len in (1, 2):
                for cycle in product(singletons, repeat=cyc_len):
                    net = SubsetNet.over_znn(space, [], Periodic(cycle))
                    values = net.values(horizon)
                    cs = cluster_set(net)
                    for y in range(space.n):
                        uy = space.minimal_open(y)
                        hit = any(values[m] & uy
                                  for m in range(horizon - cyc_len + 1,
                                                 horizon + 1))
                        assert bool(cs >> y & 1) == hit

    def test_cluster_set_is_kuratowski_limsup_on_metric_nets(self):
        rng = random.Random("clusterk")
        for i in range(90):
            family = ("affine", "geometric", "trap")[i % 3]
            net = random_rule_net(rng, family)
            net = SubsetNet.over_znn(net.ground, (), net.tail)
            if not net.is_singleton_valued():
                continue
            assert cluster_set(net) == kuratowski_limits(net)[0]

    def test_eventually_and_frequently_examples(self):
        constant = SubsetNet.over_znn(D2, [], Periodic((0b01,)))
        assert eventually_in(constant, 0b01)
        assert frequently_in(constant, 0b01)
        alt = alternating_net()
        assert not eventually_in(alt, 0b01)
        assert frequently_in(alt, 0b01)
        escape = SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1)))
        bounded = [pt(0), pt(1), pt(2)]
        assert not eventually_in(escape, bounded)
        assert not frequently_in(escape, bounded)

    def test_eventually_implies_frequently(self):
        for space in enumerate_spaces(2):
            singletons = [1 << x for x in range(space.n)]
            for cycle in product(singletons, repeat=2):
                net = SubsetNet.over_znn(space, [], Periodic(cycle))
                for u in range(1 << space.n):
                    if eventually_in(net, u):
                        assert frequently_in(net, u)

    def test_preperiod_ignored_by_tail_quantifiers(self):
        net = SubsetNet.over_znn(D2, [0b10], Periodic((0b01,)))
        assert eventually_in(net, 0b01)
        assert not frequently_in(net, 0b10)


class TestTheoremShadows:
    def test_single_valued_below_implies_above_for_nonempty_targets(self):
        rng = random.Random("belowabove")
        for i in range(120):
            family = ("affine", "geometric", "trap")[i % 3]
            net = random_rule_net(rng, family)
            net = SubsetNet.over_znn(net.ground, (), net.tail)
            if not net.is_singleton_valued():
                continue
            for k in (limit_set(net), net.tail.value(0, 0)):
                if not k:
                    continue
                if converges_from_below(net, k):
                    assert converges_from_above(net, k)

    def test_limit_set_equals_limsup_on_metric_nets(self):
        rng = random.Random("lk")
        for i in range(120):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4])
            assert limit_set(net) == kuratowski_limits(net)[0]

    def test_analysis_aggregate_consistency(self):
        rng = random.Random("agg")
        for i in range(60):
            net = random_rule_net(rng, RULE_FAMILIES[i % 4], nonempty=True)
            a = analyze(net)
            assert isinstance(a, NetAnalysis)
            assert a.limit_set == limit_set(net)
            # the four-way equivalence shows up in the aggregate
            assert (a.limit_set_compact == a.asympt_seq_compact
                    == a.weakly_asympt_seq_compact)


def stepping_geometric_check(ground, rule, b, n0, horizon=64):
    """The stepping exclusion check that the closed form replaced, as an oracle.

    It walks the branch from n0 for ``horizon`` steps, then on until the
    branch is closer to the limit point than any excluded point is.  It
    steps integers: with r^n = num/den and every coordinate of a and b
    over one denominator ``scale``, the branch point a + r^n (b - a) has
    numerators a_i den + (b_i - a_i) num over ``scale * den``, and each
    test cross-multiplies instead of reducing a ``Fraction``.
    """
    if b == rule.a:
        if rule.a in ground.excluded:
            raise MalformedInputError(
                "constant geometric tail sits on an excluded point")
        return
    gaps = [max_norm_distance(e, rule.a) for e in ground.excluded]
    floor = min((g for g in gaps if g > 0), default=None)
    span = max_norm_distance(b, rule.a)
    scale = lcm(*(c.denominator for c in rule.a + b))
    base = [int(ai * scale) for ai in rule.a]
    step = [int((bi - ai) * scale) for ai, bi in zip(rule.a, b)]
    excluded = [[(c.numerator, c.denominator) for c in e]
                for e in ground.excluded]
    if floor is not None:  # |r^n| span < floor reads |num| below < above den
        below = span.numerator * floor.denominator
        above = floor.numerator * span.denominator
    n = n0
    num, den = rule.r.numerator ** n0, rule.r.denominator ** n0
    while True:
        at = [ai * den + vi * num for ai, vi in zip(base, step)]
        over = scale * den  # the branch point is at[i] / over
        if any(all(x * ed == en * over for x, (en, ed) in zip(at, e))
               for e in excluded):
            p = tuple(F(x, over) for x in at)
            raise MalformedInputError(
                f"geometric tail hits excluded point {p} at n={n}")
        n += 1
        num *= rule.r.numerator
        den *= rule.r.denominator
        if n >= n0 + horizon and (floor is None
                                  or abs(num) * below < above * den):
            break


def exclusion_outcome(check, ground, rule, b, n0):
    """The error message a check raises, or None when it passes."""
    try:
        check(ground, rule, b, n0)
    except MalformedInputError as exc:
        return str(exc)
    return None


def random_geometric_case(rng):
    """A geometric rule, a space excluding points on and off its branches,
    and a tail start n0 in 0..3."""
    dim = rng.choice((1, 2))
    a = random_point(rng, dim)
    targets = [random_point(rng, dim) for _ in range(rng.randint(1, 2))]
    if dim == 2 and rng.random() < 0.3:
        targets[0] = (a[0], targets[0][1])  # a branch fixing one coordinate
    if rng.random() < 0.05:
        targets.append(a)  # a constant branch
    rule = GeometricConverge(a, tuple(targets), rng.choice(GEOMETRIC_RATIOS))
    excluded = set()
    for _ in range(rng.randint(0, 2)):
        p = rule.point(rng.randint(0, 8), rng.choice(targets))
        if dim == 2 and rng.random() < 0.2:
            p = (p[0], p[1] + 1)  # on the branch in one coordinate only
        excluded.add(p)
    if rng.random() < 0.3:
        excluded.add(random_point(rng, dim))
    if rng.random() < 0.2:
        excluded.add(a)
    return RationalPointSpace(dim, excluded), rule, rng.randint(0, 3)


class TestGeometricExclusionCheck:
    """The closed-form check against the stepping oracle above."""

    def test_agrees_with_the_stepping_oracle(self):
        rng = random.Random("geometric-exclusion")
        cases = raised = 0
        for _ in range(20_000):
            ground, rule, n0 = random_geometric_case(rng)
            for b in rule.targets:
                want = exclusion_outcome(stepping_geometric_check,
                                         ground, rule, b, n0)
                got = exclusion_outcome(_check_geometric_avoids_excluded,
                                        ground, rule, b, n0)
                assert got == want, (ground, rule, b, n0)
                cases += 1
                raised += want is not None
        # both outcomes are well represented
        assert cases > 20_000 and 0.25 < raised / cases < 0.75

    @pytest.mark.parametrize("a, b, r, hit, n0", [
        (pt(0), pt(1), F(1, 2), 70, 0),
        (pt(0), pt(1), F(-1, 2), 65, 1),
        (pt(F(1, 3), 0), pt(1, F(-2, 7)), F(1, 2), 90, 3),
        (pt(0), pt(1), F(99, 100), 300, 0),
        (pt(F(1, 2)), pt(0), F(-999, 1000), 100, 5)])
    def test_hits_past_the_horizon_agree_with_the_stepping_oracle(
            self, a, b, r, hit, n0):
        # the random cases put excluded points at n <= 8; the oracle finds
        # these only by stepping past its 64-step horizon, until its floor
        # rule stops it
        rule = GeometricConverge(a, b, r)
        space = RationalPointSpace(len(a), [rule.point(hit, b),
                                            rule.point(hit + 2, b)])
        want = exclusion_outcome(stepping_geometric_check, space, rule, b, n0)
        assert want is not None and want.endswith(f" at n={hit}")
        assert exclusion_outcome(_check_geometric_avoids_excluded,
                                 space, rule, b, n0) == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(GEOMETRIC_RATIOS
                           + (F(5, 7), F(-999, 1000), F(1, 1024))),
           st.integers(0, 40),
           st.sampled_from(["power", "negated", "nudged", "zero", "any"]),
           st.fractions(max_denominator=10**6))
    def test_exponent_agrees_with_the_fraction_oracle(self, r, n, how, x):
        t = {"power": r ** n, "negated": -r ** n, "nudged": r ** n + F(1, 3),
             "zero": F(0), "any": x}[how]
        got = _geometric_exponent(r, t.numerator, t.denominator)
        assert got == fraction_geometric_exponent(r, t)
        if how == "power":
            assert got == n

    def test_hit_exactly_at_the_tail_start(self):
        rule = GeometricConverge(pt(0), pt(1), F(-1, 2))
        space = RationalPointSpace(1, [pt(F(-1, 8))])
        with pytest.raises(MalformedInputError, match=r"at n=3$"):
            SubsetNet.over_znn(space, [frozenset()] * 3, rule)

    def test_hit_before_the_tail_start_is_allowed(self):
        rule = GeometricConverge(pt(0), pt(1), F(-1, 2))
        space = RationalPointSpace(1, [pt(F(1, 4))])  # the branch at n = 2
        net = SubsetNet.over_znn(space, [frozenset()] * 3, rule)
        assert net.at(3) == frozenset({pt(F(-1, 8))})

    def test_multi_target_reports_the_branch_that_hits(self):
        rule = GeometricConverge(pt(0, 0), (pt(1, 1), pt(2, 0)), F(1, 2))
        # the second branch reaches (1/4, 0) at n = 3, the first never does
        space = RationalPointSpace(2, [pt(F(1, 4), 0), pt(F(1, 4), 1)])
        with pytest.raises(MalformedInputError, match=r"at n=3$"):
            SubsetNet.over_znn(space, [], rule)
        assert exclusion_outcome(_check_geometric_avoids_excluded, space,
                                 rule, pt(1, 1), 0) is None

    def test_least_hit_is_reported(self):
        rule = GeometricConverge(pt(0), pt(1), F(1, 2))
        space = RationalPointSpace(1, [pt(F(1, 16)), pt(F(1, 4))])
        with pytest.raises(MalformedInputError, match=r"at n=2$"):
            SubsetNet.over_znn(space, [], rule)

    def test_slow_ratio_is_decided_at_once(self):
        # |r^n| stays above 1/2 for ~693,000 steps; no step is taken
        r = F(999999, 1000000)
        rule = GeometricConverge(pt(0), pt(1), r)
        start = time.perf_counter()
        net = SubsetNet.over_znn(RationalPointSpace(1, [pt(F(1, 2))]), [],
                                 rule)
        assert limit_set(net) == frozenset({pt(0)})
        with pytest.raises(MalformedInputError, match=r"at n=5$"):
            SubsetNet.over_znn(RationalPointSpace(1, [pt(r ** 5)]),
                               [frozenset()] * 2, rule)
        assert time.perf_counter() - start < 1


def stepping_affine_outcome(ground, rule, n0):
    """The error message of the affine exclusion proof, or None, found by
    stepping n from n0: a hit at n puts (e_i - c_i) / v_i = n on every
    moving coordinate, so no excluded point is hit past the largest
    |e_i - c_i| over the least nonzero |v_i|."""
    c, v = rule.c, rule.v
    step = min(abs(vi) for vi in v if vi)
    reach = max((max_norm_distance(e, c) for e in ground.excluded),
                default=0)
    for n in range(n0, n0 + 1 + int(reach / step)):
        p = rule.point(n)
        if p in ground.excluded:
            return f"escape tail hits excluded point {p} at n={n}"
    return None


def random_affine_case(rng):
    """An escape, a space excluding points on its line at integer n below,
    at and above the tail start, between two integers, off the line and on
    it in one coordinate only, and a tail start n0 in 0..3."""
    dim = rng.choice((1, 2))
    c = random_point(rng, dim)
    v = tuple(rng.choice(ESCAPE_STEPS) for _ in range(dim))
    if dim == 2 and rng.random() < 0.4:
        v = (v[0], F(0)) if rng.random() < 0.5 else (F(0), v[1])
    rule = AffineEscape(c, v)
    excluded = set()
    for _ in range(rng.randint(0, 3)):
        n = F(rng.randint(-3, 8))
        if rng.random() < 0.15:
            n += F(1, 2)  # on the line between two tail points
        p = rule.point(n)
        if dim == 2 and rng.random() < 0.25:
            i = rng.randrange(2)
            p = tuple(x + (k == i) for k, x in enumerate(p))
        excluded.add(p)
    if rng.random() < 0.3:
        excluded.add(random_point(rng, dim))
    return RationalPointSpace(dim, excluded), rule, rng.randint(0, 3)


def affine_outcome(ground, rule, n0):
    """The error message over_znn raises for the escape, or None."""
    try:
        SubsetNet.over_znn(ground, [frozenset()] * n0, rule)
    except MalformedInputError as exc:
        return str(exc)
    return None


coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=4)
steps = st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1), F(-1), F(2), F(3)])
# negative numerators over coprime denominators, some of them large
coprime_coordinate = st.builds(
    F, st.integers(-10**6, 10**6),
    st.sampled_from([1, 2, 4, 8, 1024, 3, 9, 5, 7, 11, 13, 997, 1000]))


@st.composite
def line_cases(draw, coordinate=coordinate, steps=steps):
    """(c, v, e) with v nonzero; e is anywhere, on the line c + s*v, or on
    it but for one coordinate."""
    dim = draw(st.integers(1, 3))
    c = tuple(draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    v = tuple(draw(st.lists(steps, min_size=dim, max_size=dim).filter(any)))
    how = draw(st.sampled_from(["anywhere", "on", "one coordinate off"]))
    if how == "anywhere":
        e = tuple(draw(st.lists(coordinate, min_size=dim, max_size=dim)))
    else:
        s = draw(coordinate)
        e = tuple(ci + s * vi for ci, vi in zip(c, v))
        if how == "one coordinate off":
            i = draw(st.integers(0, dim - 1))
            e = tuple(x + F(1, 3) * (k == i) for k, x in enumerate(e))
    return c, v, e


def fraction_line_parameter(c, v, e):
    """The ``Fraction`` route that ``_line_parameter`` replaced, as an
    oracle: the s with c + s*v = e (v nonzero), or None when e is off that
    line; each ratio (e_i - c_i) / v_i is compared with the first."""
    s = None
    for ci, vi, ei in zip(c, v, e):
        if not vi:
            if ci != ei:
                return None
        elif s is None:
            s = (ei - ci) / vi
        elif (ei - ci) / vi != s:
            return None
    return s


def fraction_geometric_exponent(r, t):
    """The ``Fraction`` route that ``_geometric_exponent`` replaced, as an
    oracle: the n >= 0 with r^n = t, or None."""
    den, n = t.denominator, 0
    while den % r.denominator == 0:
        den //= r.denominator
        n += 1
    return n if den == 1 and t.numerator == r.numerator ** n else None


class TestAffineExclusionCheck:
    """The closed-form affine proof against the stepping oracle above."""

    def test_agrees_with_the_stepping_oracle(self):
        rng = random.Random("affine-exclusion")
        raised = 0
        for _ in range(4_000):
            ground, rule, n0 = random_affine_case(rng)
            want = stepping_affine_outcome(ground, rule, n0)
            assert affine_outcome(ground, rule, n0) == want, (ground, rule,
                                                              n0)
            raised += want is not None
        # both outcomes are well represented
        assert 0.25 < raised / 4_000 < 0.75

    def test_least_hit_is_reported(self):
        rule = AffineEscape(pt(0), pt(1))
        space = RationalPointSpace(1, [pt(n) for n in range(9, 1, -1)])
        with pytest.raises(MalformedInputError, match=r"point \(Fraction"
                           r"\(4, 1\),\) at n=4$"):
            SubsetNet.over_znn(space, [frozenset()] * 4, rule)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(line_cases(), line_cases(coprime_coordinate),
                     line_cases(coprime_coordinate,
                                coprime_coordinate | steps)))
    def test_line_parameter_solves_the_line_exactly(self, case):
        c, v, e = case
        scale, (cs, vs) = scale_points((c, v))
        t = _line_parameter(cs, vs, scale, e)
        s = fraction_line_parameter(c, v, e)
        assert t == (None if s is None else (s.numerator, s.denominator))
        if s is not None:
            assert tuple(ci + s * vi for ci, vi in zip(c, v)) == e
        else:
            # a solution s equals (e_i - c_i) / v_i on every moving
            # coordinate; none of those candidates solves the line
            for ci, vi, ei in zip(c, v, e):
                if vi:
                    t = (ei - ci) / vi
                    assert tuple(cj + t * vj
                                 for cj, vj in zip(c, v)) != e


def inline_value(net, s):
    """X_s by the per-rule formulas, written out for each tail rule."""
    if s < len(net.preperiod):
        return net.preperiod[s]
    rule = net.tail
    if isinstance(rule, Periodic):
        return rule.cycle[(s - len(net.preperiod)) % len(rule.cycle)]
    if isinstance(rule, AffineEscape):
        return frozenset([tuple(ci + s * vi for ci, vi in zip(rule.c, rule.v))])
    return frozenset(tuple(ai + rule.r ** s * (bi - ai)
                           for ai, bi in zip(rule.a, b))
                     for b in rule.targets)


class TestSharedState:
    def test_values_match_the_per_rule_formulas(self):
        rng = random.Random("tail-values")
        nets = [random_rule_net(rng, family, nonempty=i % 2 == 1)
                for i in range(60) for family in RULE_FAMILIES]
        for space in (SIERPINSKI, D2, indiscrete_space(2)):
            nets += list(iter_periodic_nets(space))
        for net in nets:
            assert net.values(20) == [inline_value(net, s) for s in range(21)]

    def test_is_znn_is_fixed_at_construction(self):
        assert alternating_net().index is ZNN
        assert SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2]).index is not ZNN

    def test_each_net_class_writes_its_own_repr_and_label(self):
        net = SubsetNet.over_znn(Q1, [frozenset()], AffineEscape(pt(0), pt(1)))
        assert type(net) is SubsetNet
        assert repr(alternating_net()) == "SubsetNet(znn, pre=0, tail=Periodic)"
        assert repr(net) == "SubsetNet(znn, pre=1, tail=AffineEscape)"
        assert net.label() == describe_net(net) == (
            "Q^1-[] pre=((),) affine(c=(Fraction(0, 1),), "
            "v=(Fraction(1, 1),))")
        finite = SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2])
        assert type(finite) is FiniteIndexNet and finite.index is TOP_PAIR
        assert repr(finite) == "SubsetNet(finite index n=3)"
        assert finite.label() == describe_net(finite) == (
            "space(1, 2) index=(7, 6, 6) values=(0, 1, 2)")

    def test_a_finite_index_net_refuses_the_z_plus_methods(self):
        net = SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2])
        with pytest.raises(PreconditionError, match=r"values\(\) needs a Z\+"):
            net.values(2)
        with pytest.raises(PreconditionError,
                           match=r"with_preperiod\(\) needs a Z\+"):
            net.with_preperiod([0b01])


def small_periodic_nets():
    """Every periodic net, cycle <= 2 and preperiod <= 2, on 1 or 2 points."""
    return [net for n in (1, 2) for space in enumerate_spaces(n)
            for net in iter_periodic_nets(space)]


def net_profile(net):
    """Everything a caller can read off a finite-space Z+ net."""
    ground = net.ground
    sets = range(1 << ground.n)
    profile = [net.preperiod, net.tail, net.summary, net.values(12),
               describe_net(net), limit_set(net), sequential_limit_set(net),
               analyze(net), is_eventually_lagrange_stable(net),
               is_asymptotically_seq_compact(net),
               is_weakly_asymptotically_seq_compact(net),
               is_limit_set_compact(net), net.is_singleton_valued(),
               [converges_from_above(net, a) for a in sets],
               [converges_from_below(net, a) for a in sets]]
    if net.is_singleton_valued():
        profile += [cluster_set(net),
                    [eventually_in(net, u) for u in sets],
                    [frequently_in(net, u) for u in sets]]
    return profile


def summary_answers(net, targets):
    """Every answer read off the net's summary and ground alone."""
    return [limit_set(net), sequential_limit_set(net),
            [converges_from_above(net, a) for a in targets],
            [converges_from_below(net, a) for a in targets],
            is_limit_set_compact(net), is_eventually_lagrange_stable(net),
            is_asymptotically_seq_compact(net),
            is_weakly_asymptotically_seq_compact(net), analyze(net)]


class TestDerivedNets:
    def test_summary_answers_match_the_base_net(self):
        # verify asks these once per cycle, on the base net with an empty
        # preperiod, and reuses them for every preperiod
        for n in (1, 2):
            for space in enumerate_spaces(n):
                targets = range(1 << n)
                for base, pres in iter_periodic_cycles(space):
                    assert base.preperiod == ()
                    want = summary_answers(base, targets)
                    for pre in pres:
                        derived = base.with_preperiod(pre)
                        assert summary_answers(derived, targets) == want
        rng = random.Random("preperiod-invariance")
        nets = [random_rule_net(rng, family, nonempty=i % 2 == 1)
                for i in range(60) for family in RULE_FAMILIES]
        assert len(nets) == 240
        for base in nets:
            targets = [limit_set(base), frozenset(), *base.values(2)]
            want = summary_answers(base, targets)
            for filler in (frozenset(), base.at(0)):
                for extra in (1, 2):
                    derived = base.with_preperiod(
                        base.preperiod + (filler,) * extra)
                    assert summary_answers(derived, targets) == want

    def test_values_agree_with_at(self):
        rng = random.Random("values-vs-at")
        nets = [random_rule_net(rng, family, nonempty=i % 2 == 1)
                for i in range(60) for family in RULE_FAMILIES]
        assert len(nets) == 240
        for net in nets + small_periodic_nets():
            k = len(net.preperiod)
            for upto in {-1, 0, k - 1, k, 12}:
                assert net.values(upto) == [net.at(n)
                                            for n in range(upto + 1)]

    def test_derived_nets_match_fresh_construction(self):
        for net in small_periodic_nets():
            fresh = SubsetNet.over_znn(net.ground, net.preperiod, net.tail)
            assert net_profile(net) == net_profile(fresh)

    def test_shorter_preperiods_are_rebuilt(self):
        for n in (1, 2):
            for space in enumerate_spaces(n):
                full = space.full_mask
                for base in iter_periodic_nets(space, max_pre=0):
                    long = base.with_preperiod((full, full))
                    assert long.summary is base.summary
                    for derived in iter_periodic_nets(space, max_cycle=1):
                        pre = derived.preperiod
                        got = long.with_preperiod(pre)
                        fresh = SubsetNet.over_znn(space, pre, base.tail)
                        assert net_profile(got) == net_profile(fresh)

    def test_shorter_preperiod_reruns_the_exclusion_proof(self):
        # X_0 of each tail is the excluded point 1; one preperiod entry
        # hides it, dropping that entry exposes it
        space = RationalPointSpace(1, [pt(1)])
        for tail in (GeometricConverge(pt(0), pt(1), F(1, 2)),
                     AffineEscape(pt(1), pt(1))):
            net = SubsetNet.over_znn(space, [frozenset({pt(2)})], tail)
            longer = net.with_preperiod([frozenset(), frozenset()])
            assert longer.summary is net.summary
            assert longer.at(2) == net.at(2)
            with pytest.raises(MalformedInputError, match=r"at n=0$"):
                net.with_preperiod(())

    def test_out_of_range_preperiod_mask_rejected(self):
        with pytest.raises(PreconditionError):
            alternating_net().with_preperiod([0b01, 0b100])
        with pytest.raises(PreconditionError):
            SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2]).with_preperiod(())


# -- ground set operations, against the per-ground helpers they replaced ------

def oracle_normalize(ground, s):
    if isinstance(ground, FiniteSpace):
        if not isinstance(s, int):
            s = sum(1 << int(x) for x in s)
        ground.check_set(s)
        return s
    return ground.check_set(s)


def oracle_closure(ground, s):
    """The spec-row bit walk; finite rational sets are closed."""
    if isinstance(ground, FiniteSpace):
        ground.check_set(s)
        out = 0
        for x in range(ground.n):
            if ground.rows[x] & s:
                out |= 1 << x
        return out
    return s


def oracle_union(ground, sets):
    out = 0 if isinstance(ground, FiniteSpace) else frozenset()
    for s in sets:
        out |= s
    return out


def oracle_size(ground, s):
    return bin(s).count("1") if isinstance(ground, FiniteSpace) else len(s)


def oracle_subset(ground, a, b):
    if isinstance(ground, FiniteSpace):
        return a & ~b == 0
    return a <= b


def oracle_in_every_neighborhood(ground, s, a):
    """s inside every open superset of a, by enumerating the open sets."""
    if isinstance(ground, FiniteSpace):
        return all(s & ~u == 0 for u in ground.open_sets() if a & ~u == 0)
    return s <= a


FINITE_GROUNDS = [space for n in (1, 2, 3) for space in enumerate_spaces(n)] + [
    FinitePseudoMetric([[0, 1], [1, 0]]),
    FinitePseudoMetric.from_points([(0,), (0,), (1,)])]


def assert_pair_ops_agree(ground, a, b):
    assert ground.union((a, b)) == oracle_union(ground, (a, b))
    assert ground.subset(a, b) == oracle_subset(ground, a, b)
    assert (ground.in_every_neighborhood(a, b)
            == oracle_in_every_neighborhood(ground, a, b))


def raised(call, *args):
    with pytest.raises((PreconditionError, MembershipError)) as info:
        call(*args)
    return info.type, str(info.value)


class TestGroundOperations:
    def test_finite_grounds_match_the_helpers_on_every_subset(self):
        for ground in FINITE_GROUNDS:
            masks = range(1 << ground.n)
            for e in masks:
                points = [x for x in range(ground.n) if e >> x & 1]
                for s in (e, points, tuple(points), frozenset(points)):
                    assert ground.normalize(s) == oracle_normalize(ground, s)
                assert ground.normalize(iter(points)) == e
                assert ground.closure(e) == oracle_closure(ground, e)
                assert ground.closure(e) == oracle_closure(ground, e)  # memo
                assert ground.size(e) == oracle_size(ground, e)
                for f in masks:
                    assert_pair_ops_agree(ground, e, f)
            for b in (False, True):  # a bool is no point set
                assert raised(ground.normalize, b)[0] is PreconditionError
                assert raised(ground.check_set, b)[0] is PreconditionError
            assert ground.union(()) == oracle_union(ground, ()) == 0
            assert ground.union(iter(masks)) == ground.full_mask

    def test_rational_grounds_match_the_helpers_on_random_sets(self):
        rng = random.Random("ground-operations")
        for _ in range(150):
            space = random_space(rng)
            raw = []
            for _ in range(4):
                pts = [random_point(rng, space.dim)
                       for _ in range(rng.randint(0, 3))]
                raw.append([list(p) for p in pts if space.contains(p)])
            sets = [space.normalize(r) for r in raw]
            for r, s in zip(raw, sets):
                assert s == oracle_normalize(space, r)
                assert space.closure(s) == oracle_closure(space, s)
                assert space.size(s) == oracle_size(space, s)
            for a, b in product(sets, repeat=2):
                assert_pair_ops_agree(space, a, b)
                assert_pair_ops_agree(space, a, a | b)
            assert space.union(sets) == oracle_union(space, sets)
            assert space.union(()) == frozenset()

    @pytest.mark.parametrize("ground", [SIERPINSKI, discrete_space(3),
                                        FinitePseudoMetric([[0, 1], [1, 0]])],
                             ids=["sierpinski", "discrete3", "metric"])
    def test_out_of_range_sets_raise_every_time(self, ground):
        n = ground.n
        for call, oracle, bad in (
                (ground.normalize, oracle_normalize, 1 << n),
                (ground.normalize, oracle_normalize, -1),
                (ground.normalize, oracle_normalize, [0, n]),
                (ground.closure, oracle_closure, 1 << n),
                (ground.closure, oracle_closure, -1),
                (ground.closure, oracle_closure, 0b101 << n)):
            first = raised(call, bad)
            assert first[0] is PreconditionError
            assert call(1) == oracle(ground, 1)
            assert raised(call, bad) == first

    def test_excluded_points_raise_every_time(self):
        space = RationalPointSpace(1, [pt(0)])
        for bad in ([pt(0)], [pt(1), (0,)], [pt(1, 2)]):
            first = raised(space.normalize, bad)
            assert first[0] is MembershipError
            assert space.normalize([(1,)]) == frozenset([pt(1)])
            assert raised(space.normalize, bad) == first

    def test_invalid_cycle_raises_after_a_valid_net_on_the_same_tail(self):
        tail = Periodic((0b100,))
        with pytest.raises(PreconditionError):
            SubsetNet.over_znn(D2, [], tail)
        assert SubsetNet.over_znn(discrete_space(3), [], tail).tail is tail
        with pytest.raises(PreconditionError):
            SubsetNet.over_znn(D2, [], tail)

    def test_periodic_tail_is_reused_only_when_already_normal(self):
        tail = Periodic((0b01, 0b11))
        assert SubsetNet.over_znn(D2, [], tail).tail is tail
        with pytest.raises(PreconditionError, match="point set"):
            SubsetNet.over_znn(D2, [], Periodic((0b01, True)))  # no bool set
        listed = Periodic(([0], [0, 1]))
        net = SubsetNet.over_znn(D2, [], listed)
        assert net.tail == Periodic((0b01, 0b11)) and net.tail is not listed
        space = RationalPointSpace(1)
        ints = Periodic((frozenset([(1,)]),))
        net = SubsetNet.over_znn(space, [], ints)
        assert net.tail is not ints
        assert all(type(c) is F for p in net.tail.cycle[0] for c in p)


class TestValuesAndVerdictFlags:
    def test_values_match_at_around_the_preperiod(self):
        rng = random.Random("values-upto")
        nets = [random_rule_net(rng, family)
                for _ in range(25) for family in RULE_FAMILIES]
        assert {type(net.tail) for net in nets} == {
            Periodic, AffineEscape, GeometricConverge}
        assert any(net.summary.lost and isinstance(net.tail, GeometricConverge)
                   for net in nets)  # trap nets
        for space in (SIERPINSKI, discrete_space(3),
                      FinitePseudoMetric([[0, 1], [1, 0]])):
            nets += list(iter_periodic_nets(space))
        nets += [SubsetNet.over_znn(D2, [1, 2, 3, 0, 1], Periodic((2, 3))),
                 SubsetNet.over_znn(Q1, [[pt(k)] for k in range(4)],
                                    GeometricConverge(pt(0), pt(1), F(1, 2)))]
        for net in nets:
            k = len(net.preperiod)
            for upto in sorted({-3, -1, 0, k - 1, k, k + 1, k + 4}):
                assert net.values(upto) == [net.at(n)
                                            for n in range(upto + 1)]

    def test_at_rejects_indices_outside_the_index(self):
        for pre in ((), (0b11,), (0b01, 0b10)):
            net = SubsetNet.over_znn(D2, pre, Periodic((0b01, 0b10)))
            for s in (-1, -2, -5):
                with pytest.raises(PreconditionError, match="negative"):
                    net.at(s)
            assert net.at(len(pre)) == 0b01
        net = SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2])
        assert [net.at(s) for s in range(3)] == [0, 1, 2]
        for s in (-1, -3, 3, 4):
            with pytest.raises(PreconditionError, match="finite index"):
                net.at(s)

    def test_indices_must_be_ints(self):
        nets = [SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1))),
                SubsetNet.over_znn(D2, [0b11], Periodic((0b01, 0b10))),
                SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2])]
        for net in nets:
            for s in (1.5, 1.0, True, False, F(1), "1", None):
                with pytest.raises(PreconditionError, match="not an int"):
                    net.at(s)
            if net.index is ZNN:
                for upto in (2.5, 2.0, True, F(2), "2"):
                    with pytest.raises(PreconditionError, match="not an int"):
                        net.values(upto)
                assert net.values(2) == [net.at(n) for n in range(3)]

    def test_values_needs_a_znn_net(self):
        net = SubsetNet.over_finite(D2, TOP_PAIR, [0, 1, 2])
        for upto in (0, 2, 5):
            with pytest.raises(PreconditionError):
                net.values(upto)

    def test_every_net_predicate_returns_a_bool(self):
        # a verdict is exactly True or False, never a truthy mask or set
        rng = random.Random("bool-verdicts")
        rational = [random_rule_net(rng, family, nonempty=i % 2 == 1)
                    for i in range(10) for family in RULE_FAMILIES]
        rational.append(SubsetNet.over_znn(Q1, [], AffineEscape(pt(0), pt(1))))
        finite = list(iter_periodic_nets(SIERPINSKI, max_pre=1))
        finite += [SubsetNet.over_finite(D2, TOP_PAIR, values)
                   for values in product(range(4), repeat=3)]
        singletons = {False: 0, True: 0}
        for net in rational + finite:
            ground = net.ground
            verdicts = [is_eventually_lagrange_stable(net),
                        is_asymptotically_seq_compact(net),
                        is_weakly_asymptotically_seq_compact(net),
                        is_limit_set_compact(net)]
            analysis = analyze(net)
            verdicts += [getattr(analysis, f.name)
                         for f in dataclasses.fields(analysis)
                         if f.name != "limit_set"]
            if ground.rational:
                targets = [limit_set(net), net.at(0), net.at(1)]
            else:
                targets = range(1 << ground.n)
            for a in targets:
                verdicts += [converges_from_above(net, a),
                             converges_from_below(net, a)]
                if ground.rational and a:
                    verdicts += [semidistance_convergence_check(net, a),
                                 *below_iff_semidistance(net, a)]
                if net.is_singleton_valued():
                    singletons[ground.rational] += 1
                    verdicts += [eventually_in(net, a),
                                 frequently_in(net, a)]
            assert all(type(v) is bool for v in verdicts), (net, verdicts)
        assert all(singletons.values())  # point nets on both backends
