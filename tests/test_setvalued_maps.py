import random
from fractions import Fraction as F
from itertools import product

import pytest

from limitset_lab.errors import MalformedInputError, PreconditionError
from limitset_lab.finite_topology import (SIERPINSKI, FiniteSpace,
                                          discrete_space, enumerate_spaces)
from limitset_lab.pseudometric_core import FinitePseudoMetric
from limitset_lab.setvalued_maps import (SetValuedMap, image, is_lsc_at,
                                         is_usc_at, lsc_via_semidistance)
from limitset_lab.subset_nets import SubsetNet, converges_from_below


def oracle_usc_at(f, x):
    """Definition with neighborhoods as arbitrary supersets of open sets."""
    n_dom, n_cod = f.domain.n, f.codomain.n
    cod_opens = f.codomain.open_sets()
    dom_opens = f.domain.open_sets()

    def is_nbhd(ground_opens, u, pt):
        return any(o >> pt & 1 and o & ~u == 0 for o in ground_opens)

    fx = f.graph[x]
    for u in range(1 << n_cod):
        if not all(is_nbhd(cod_opens, u, y) for y in range(n_cod)
                   if fx >> y & 1):
            continue
        if fx == 0 and not any(o & ~u == 0 for o in cod_opens):
            continue  # u must still contain an open set around F(x) = empty
        ok = any(image(f, v) & ~u == 0
                 for v in range(1 << n_dom) if is_nbhd(dom_opens, v, x))
        if not ok:
            return False
    return True


def oracle_lsc_at(f, x):
    fx = f.graph[x]
    if fx == 0:
        return True
    dom_opens = f.domain.open_sets()
    cod_opens = f.codomain.open_sets()
    for y in range(f.codomain.n):
        if not fx >> y & 1:
            continue
        for u in range(1 << f.codomain.n):
            if not any(o >> y & 1 and o & ~u == 0 for o in cod_opens):
                continue
            ok = False
            for v in range(1 << f.domain.n):
                if not any(o >> x & 1 and o & ~v == 0 for o in dom_opens):
                    continue
                if all(f.graph[xp] & u for xp in range(f.domain.n)
                       if v >> xp & 1):
                    ok = True
                    break
            if not ok:
                return False
    return True


def zero_one_metrics(n):
    """All pseudo-metrics on n points with distances in {0, 1}."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in product((0, 1), repeat=len(pairs)):
        dist = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, bits):
            dist[i][j] = dist[j][i] = v
        try:
            yield FinitePseudoMetric(dist)
        except MalformedInputError:
            continue  # zero pattern not transitive


class TestImage:
    def test_empty(self):
        f = SetValuedMap(SIERPINSKI, SIERPINSKI, (0b01, 0b10))
        assert image(f, 0) == 0

    def test_identity_graph(self):
        d3 = discrete_space(3)
        f = SetValuedMap(d3, d3, (0b001, 0b010, 0b100))
        for a in range(8):
            assert image(f, a) == a

    def test_additivity_sweep(self):
        rng = random.Random(5)
        d3 = discrete_space(3)
        for _ in range(50):
            f = SetValuedMap(d3, d3, tuple(rng.randrange(8) for _ in range(3)))
            for a in range(8):
                for b in range(8):
                    assert image(f, a | b) == image(f, a) | image(f, b)

    def test_graph_totality_checked(self):
        with pytest.raises(MalformedInputError):
            SetValuedMap(SIERPINSKI, SIERPINSKI, (0b01,))

    def test_graph_values_inside_codomain_checked(self):
        with pytest.raises(MalformedInputError,
                           match="^graph value outside the codomain$"):
            SetValuedMap(SIERPINSKI, SIERPINSKI, (0b01, 0b100))
        d3 = discrete_space(3)
        assert SetValuedMap(SIERPINSKI, d3, (0b001, 0b100)).graph \
            == (0b001, 0b100)


@pytest.mark.parametrize("check", [is_usc_at, is_lsc_at, lsc_via_semidistance])
@pytest.mark.parametrize("x", [-1, 2, 10**9, True, 1.0, "0", None])
def test_a_point_outside_the_domain_is_refused(check, x):
    m2 = FinitePseudoMetric([[0, 1], [1, 0]])
    f = SetValuedMap(m2, m2, (0b01, 0b11))
    with pytest.raises(PreconditionError, match="point"):
        check(f, x)
    assert check(f, 1) in (True, False)  # the domain's last point is fine


class TestUpperSemicontinuity:
    def test_isolated_point_always_usc(self):
        # 1 is the open point of the Sierpinski space
        for graph in product(range(4), repeat=2):
            f = SetValuedMap(SIERPINSKI, SIERPINSKI, graph)
            assert is_usc_at(f, 1)

    def test_discrete_domain_always_usc(self):
        d2 = discrete_space(2)
        for graph in product(range(4), repeat=2):
            f = SetValuedMap(d2, SIERPINSKI, graph)
            assert is_usc_at(f, 0) and is_usc_at(f, 1)

    def test_sierpinski_swap_map(self):
        f = SetValuedMap(SIERPINSKI, SIERPINSKI, (0b10, 0b01))
        # at 0: U = {1} contains F(0) but every V containing 0 maps onto {0,1}
        assert is_usc_at(f, 0) == oracle_usc_at(f, 0) == False
        assert is_usc_at(f, 1) == oracle_usc_at(f, 1) == True

    def test_matches_neighborhood_oracle(self):
        spaces = list(enumerate_spaces(2))
        for dom in spaces:
            for cod in spaces:
                for graph in product(range(4), repeat=2):
                    f = SetValuedMap(dom, cod, graph)
                    for x in range(2):
                        assert is_usc_at(f, x) == oracle_usc_at(f, x)


class TestLowerSemicontinuity:
    def test_empty_value_is_lsc(self):
        f = SetValuedMap(SIERPINSKI, SIERPINSKI, (0, 0b11))
        assert is_lsc_at(f, 0)

    def test_isolated_point_always_lsc(self):
        for graph in product(range(4), repeat=2):
            f = SetValuedMap(SIERPINSKI, SIERPINSKI, graph)
            assert is_lsc_at(f, 1)

    def test_matches_neighborhood_oracle(self):
        spaces = list(enumerate_spaces(2))
        for dom in spaces:
            for cod in spaces:
                for graph in product(range(4), repeat=2):
                    f = SetValuedMap(dom, cod, graph)
                    for x in range(2):
                        assert is_lsc_at(f, x) == oracle_lsc_at(f, x)

    def test_discrete_domain_usc_and_lsc_everywhere(self):
        rng = random.Random(6)
        for n in (2, 3, 4):
            dom = discrete_space(n)
            for cod in enumerate_spaces(2):
                for _ in range(10):
                    graph = tuple(rng.randrange(4) for _ in range(n))
                    f = SetValuedMap(dom, cod, graph)
                    for x in range(n):
                        assert is_usc_at(f, x) and is_lsc_at(f, x)


class TestSemidistanceCriterion:
    def test_constant_map(self):
        m2 = FinitePseudoMetric([[0, 1], [1, 0]])
        f = SetValuedMap(m2, m2, (0b11, 0b11))
        assert lsc_via_semidistance(f, 0)

    def test_two_point_domain_example(self):
        # domain {x, x'} at distance 1; F(x) = {p, q}, F(x') = {p}: the
        # ball of radius <= 1 around x excludes x', so every eps succeeds
        dom = FinitePseudoMetric([[0, 1], [1, 0]])
        cod = FinitePseudoMetric([[0, 1], [1, 0]])
        f = SetValuedMap(dom, cod, (0b11, 0b01))
        assert lsc_via_semidistance(f, 0)
        # gluing x to x' (distance 0) removes that ball and breaks lsc
        glued = FinitePseudoMetric([[0, 0], [0, 0]])
        g = SetValuedMap(glued, cod, (0b11, 0b01))
        assert not lsc_via_semidistance(g, 0)
        assert not is_lsc_at(g, 0)

    def test_empty_value_rejected(self):
        m2 = FinitePseudoMetric([[0, 1], [1, 0]])
        f = SetValuedMap(m2, m2, (0, 0b01))
        with pytest.raises(PreconditionError):
            lsc_via_semidistance(f, 0)

    def test_topological_grounds_rejected(self):
        f = SetValuedMap(SIERPINSKI, SIERPINSKI, (0b01, 0b10))
        with pytest.raises(PreconditionError):
            lsc_via_semidistance(f, 0)

    def test_matches_definition_on_small_exhaustive_family(self):
        doms = [m for n in (1, 2, 3) for m in zero_one_metrics(n)]
        cods = [m for n in (1, 2) for m in zero_one_metrics(n)]
        for dom in doms:
            for cod in cods:
                for graph in product(range(1 << cod.n), repeat=dom.n):
                    f = SetValuedMap(dom, cod, graph)
                    for x in range(dom.n):
                        if f.graph[x] == 0:
                            continue
                        assert lsc_via_semidistance(f, x) == is_lsc_at(f, x)


class TestApproachNetCharacterization:
    def test_lsc_iff_image_net_converges_from_below(self):
        # the approach net over X minus {x}, ordered by decreasing distance
        # to x, must converge from below to F(x) exactly when F is lsc at a
        # non-isolated x
        doms = [m for m in zero_one_metrics(3)]
        cods = [m for n in (1, 2) for m in zero_one_metrics(n)]
        for dom in doms:
            for cod in cods:
                for graph in product(range(1 << cod.n), repeat=3):
                    f = SetValuedMap(dom, cod, graph)
                    for x in range(3):
                        if dom.minimal_open(x) == 1 << x:
                            continue  # isolated: the remark does not apply
                        others = [p for p in range(3) if p != x]
                        rows = []
                        for i in others:
                            row = 0
                            for j, pj in enumerate(others):
                                if dom.scaled[x][i] >= dom.scaled[x][pj]:
                                    row |= 1 << j
                            rows.append(row)
                        order = FiniteSpace(rows)
                        net = SubsetNet.over_finite(
                            cod, order, [graph[p] for p in others])
                        below = converges_from_below(net, graph[x])
                        assert below == is_lsc_at(f, x)
