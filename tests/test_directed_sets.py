from itertools import product

import pytest

from limitset_lab.directed_sets import FiniteOrder, is_directed, top_element
from limitset_lab.errors import MalformedInputError, PreconditionError


def all_reflexive_matrices(n):
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in product((False, True), repeat=len(offdiag)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), v in zip(offdiag, bits):
            rel[a][b] = v
        yield rel


def oracle_is_directed(rel):
    """Definition unrolled: reflexive, transitive, pairwise upper bounds."""
    n = len(rel)
    if any(not rel[a][a] for a in range(n)):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rel[a][b] and rel[b][c] and not rel[a][c]:
                    return False
    for a in range(n):
        for b in range(n):
            if not any(rel[a][c] and rel[b][c] for c in range(n)):
                return False
    return True


def directed_orders_upto(n_max):
    for n in range(1, n_max + 1):
        for rel in all_reflexive_matrices(n):
            if oracle_is_directed(rel):
                yield FiniteOrder.from_matrix(rel)


class TestIsDirected:
    def test_total_order_is_directed(self):
        chain = [[a <= b for b in range(3)] for a in range(3)]
        assert is_directed(chain)

    def test_incomparable_pair_without_bound(self):
        assert not is_directed([[True, False], [False, True]])

    def test_nonsquare_rejected(self):
        with pytest.raises(MalformedInputError):
            is_directed([[True, False]])

    def test_agrees_with_bruteforce_on_all_3x3_reflexive_matrices(self):
        for rel in all_reflexive_matrices(3):
            assert is_directed(rel) == oracle_is_directed(rel)

    def test_missing_reflexivity_fails(self):
        assert not is_directed([[False]])


class TestTopElement:
    def test_every_element_below_top(self):
        for order in directed_orders_upto(3):
            top = top_element(order)
            assert all(order.leq(a, top) for a in order.elements())

    def test_least_index_tie_break(self):
        # two equivalent maximal elements 1 and 2: the least index wins
        order = FiniteOrder.from_matrix([
            [True, True, True],
            [False, True, True],
            [False, True, True],
        ])
        assert top_element(order) == 1


def test_undirected_order_has_no_top_element():
    undirected = FiniteOrder.from_matrix([[True, False], [False, True]])
    with pytest.raises(PreconditionError, match="index order must be directed"):
        top_element(undirected)
