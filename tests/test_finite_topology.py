import random
import tracemalloc
from itertools import combinations, product

import pytest

from limitset_lab import finite_topology
from limitset_lab.errors import (MalformedInputError, PreconditionError,
                                 SizeLimitError)
from limitset_lab.finite_topology import (DENSE_CHUNK, REGULARITY_CAP,
                                          SIERPINSKI,
                                          FiniteSpace, closure,
                                          discrete_space, enumerate_spaces,
                                          indiscrete_space, is_hausdorff,
                                          is_neighborhood,
                                          is_pseudometrizable, is_regular,
                                          separate_compact_from_point,
                                          set_bits, top_element)
from limitset_lab.pseudometric_core import FinitePseudoMetric
from limitset_lab.subset_nets import Periodic, SubsetNet, limit_set

# frozen via the reflexive-transitive matrix filter oracle below; the n=5
# value was computed once with the same oracle (6942, 4.3 s) and frozen
PREORDER_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}


def oracle_preorder_count(n):
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    count = 0
    for bits in product((False, True), repeat=len(offdiag)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), v in zip(offdiag, bits):
            rel[a][b] = v
        if all(not (rel[a][b] and rel[b][c]) or rel[a][c]
               for a in range(n) for b in range(n) for c in range(n)):
            count += 1
    return count


def oracle_closure(space, e):
    """Smallest closed superset, found by enumerating all closed sets."""
    candidates = [c for c in range(1 << space.n)
                  if space.is_closed(c) and e & ~c == 0]
    best = space.full_mask
    for c in candidates:
        if c & ~best == 0:
            best = c
    return best


class TestClosure:
    def test_empty(self):
        assert closure(SIERPINSKI, 0) == 0

    def test_sierpinski_closure_of_open_point(self):
        e = 0b10  # the point 1
        assert closure(SIERPINSKI, e) == 0b11
        assert closure(SIERPINSKI, e) == oracle_closure(SIERPINSKI, e)

    def test_discrete_points_closed(self):
        d2 = discrete_space(2)
        assert closure(d2, 0b01) == 0b01

    def test_matches_closed_set_enumeration_oracle(self):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                for e in range(1 << n):
                    assert closure(space, e) == oracle_closure(space, e)

    def test_kuratowski_axioms_up_to_four_points(self):
        for n in (1, 2, 3, 4):
            for space in enumerate_spaces(n):
                full = 1 << n
                for e in range(full):
                    ce = closure(space, e)
                    assert e & ~ce == 0                      # extensive
                    assert closure(space, ce) == ce          # idempotent
                for e in range(full):
                    ce = closure(space, e)
                    for f in range(full):
                        assert closure(space, e | f) == ce | closure(space, f)


class TestNormalize:
    def test_a_repeated_point_is_one_point(self):
        assert discrete_space(3).normalize([1, 1]) == 0b10
        assert discrete_space(3).normalize([2, 0, 2]) == 0b101

    def test_a_repeated_point_leaves_the_limit_set_alone(self):
        net = SubsetNet.over_znn(discrete_space(3), [], Periodic(([0, 0],)))
        assert limit_set(net) == 0b1

    @pytest.mark.parametrize("points", [[1.7], [-1], [3], [True], ["1"],
                                        [0, 10**30]])
    def test_a_point_outside_the_space_is_refused(self, points):
        with pytest.raises(PreconditionError):
            discrete_space(3).normalize(points)


class TestCheckSet:
    @pytest.mark.parametrize("e", [True, False, 1.5, 1.0, "1", None])
    def test_only_an_int_mask_passes(self, e):
        space = discrete_space(3)
        with pytest.raises(PreconditionError, match="point set"):
            space.check_set(e)
        with pytest.raises(PreconditionError, match="point"):
            space.normalize(e)  # "1" is an iterable of one bad point
        assert space.normalize(0b101) == 0b101
        space.check_set(0b101)

    def test_a_bool_mask_is_refused_where_sets_are_checked(self):
        space = discrete_space(3)
        with pytest.raises(PreconditionError, match="point set"):
            space.minimal_open_superset(True)
        metric = FinitePseudoMetric.from_points([(0,), (1,), (2,)])
        with pytest.raises(PreconditionError, match="point set"):
            metric.semidistance(True, 2)


class TestCheckPoint:
    @pytest.mark.parametrize("x", [True, False, 1.5, 1.0, "1", None, -1, 3])
    def test_only_an_int_point_of_the_space_passes(self, x):
        space = discrete_space(3)
        with pytest.raises(PreconditionError, match="point"):
            space.check_point(x)
        with pytest.raises(PreconditionError, match="point"):
            space.minimal_open(x)
        assert space.minimal_open(1) == 0b10

    def test_separation_refuses_a_bool_point(self):
        with pytest.raises(PreconditionError, match="point"):
            separate_compact_from_point(discrete_space(3), 0b1, True)


class TestNeighborhoods:
    def test_whole_space_is_neighborhood(self):
        for space in enumerate_spaces(3):
            for x in range(3):
                assert is_neighborhood(space, space.full_mask, x)

    def test_sierpinski_closed_point_has_big_neighborhoods(self):
        # {0} is not open and the minimal open set of 0 is {0,1}
        assert not is_neighborhood(SIERPINSKI, 0b01, 0)
        assert is_neighborhood(SIERPINSKI, 0b11, 0)
        assert is_neighborhood(SIERPINSKI, 0b10, 1)

    def test_discrete_any_containing_set(self):
        d3 = discrete_space(3)
        for u in range(8):
            for x in range(3):
                assert is_neighborhood(d3, u, x) == bool(u >> x & 1)

    def test_matches_open_set_enumeration_oracle(self):
        for space in enumerate_spaces(3):
            opens = space.open_sets()
            for u in range(8):
                for x in range(3):
                    expected = any(o >> x & 1 and o & ~u == 0 for o in opens)
                    assert is_neighborhood(space, u, x) == expected


class TestSeparationAxioms:
    def test_discrete_is_hausdorff(self):
        assert is_hausdorff(discrete_space(3))

    def test_sierpinski_not_hausdorff_bruteforce(self):
        assert not is_hausdorff(SIERPINSKI)
        # brute force over all neighborhood pairs agrees
        found = any(
            is_neighborhood(SIERPINSKI, u, 0)
            and is_neighborhood(SIERPINSKI, v, 1) and not u & v
            for u in range(4) for v in range(4))
        assert not found

    def test_indiscrete_not_hausdorff(self):
        assert not is_hausdorff(indiscrete_space(2))

    def test_hausdorff_iff_identity_spec(self):
        for n in (1, 2, 3, 4):
            for space in enumerate_spaces(n):
                identity = all(space.rows[x] == 1 << x for x in range(n))
                assert is_hausdorff(space) == identity

    def test_discrete_and_indiscrete_regular(self):
        assert is_regular(discrete_space(3))
        assert is_regular(indiscrete_space(2))

    def test_sierpinski_not_regular(self):
        assert not is_regular(SIERPINSKI)

    def test_pseudometrizable_examples(self):
        assert is_pseudometrizable(indiscrete_space(2))
        assert not is_pseudometrizable(SIERPINSKI)

    def test_regularity_is_capped(self):
        assert is_regular(discrete_space(REGULARITY_CAP))
        for space in (discrete_space(REGULARITY_CAP + 1),
                      indiscrete_space(14)):
            with pytest.raises(SizeLimitError, match="capped at n <= 10"):
                is_regular(space)
        # the other separation checks have no such bound
        assert is_hausdorff(discrete_space(14))
        assert is_pseudometrizable(discrete_space(14))

    def test_regular_iff_symmetric_preorder_up_to_four_points(self):
        for n in (1, 2, 3, 4):
            for space in enumerate_spaces(n):
                assert is_regular(space) == is_pseudometrizable(space)


class TestSeparateCompactFromPoint:
    def test_discrete_split(self):
        d2 = discrete_space(2)
        assert separate_compact_from_point(d2, 0b01, 1) == (0b01, 0b10)

    def test_sierpinski_no_separation(self):
        # every neighborhood of 0 contains 1
        assert separate_compact_from_point(SIERPINSKI, 0b01, 1) is None

    def test_empty_compact_vacuous(self):
        assert separate_compact_from_point(SIERPINSKI, 0, 1) == (0, 0b11)

    def test_point_inside_k_rejected(self):
        with pytest.raises(PreconditionError):
            separate_compact_from_point(SIERPINSKI, 0b01, 0)

    def test_hausdorff_spaces_always_separate(self):
        for n in (2, 3, 4):
            space = discrete_space(n)
            for k in range(1, 1 << n):
                for y in range(n):
                    if k >> y & 1:
                        continue
                    pair = separate_compact_from_point(space, k, y)
                    assert pair is not None
                    u, v = pair
                    assert k & ~u == 0 and v >> y & 1 and not u & v

    def test_returned_pairs_are_neighborhoods(self):
        for space in enumerate_spaces(3):
            for k in range(8):
                for y in range(3):
                    if k >> y & 1:
                        continue
                    pair = separate_compact_from_point(space, k, y)
                    if pair is None:
                        # exhaustive search agrees that nothing separates
                        assert not any(
                            k & ~u == 0 and space.is_open(u)
                            and space.is_open(v) and v >> y & 1 and not u & v
                            for u in range(8) for v in range(8))
                    else:
                        u, v = pair
                        assert not u & v
                        assert is_neighborhood(space, v, y)
                        if k:
                            assert space.is_open(u) and k & ~u == 0


class TestEnumeration:
    def test_counts_match_frozen_table(self):
        for n in (1, 2, 3, 4, 5):
            assert sum(1 for _ in enumerate_spaces(n)) == PREORDER_COUNTS[n]

    def test_counts_match_bruteforce_oracle(self):
        for n in (1, 2, 3, 4):
            assert PREORDER_COUNTS[n] == oracle_preorder_count(n)

    def test_spaces_distinct(self):
        seen = {s.rows for s in enumerate_spaces(3)}
        assert len(seen) == 29

    def test_two_point_spaces(self):
        spaces = {s.rows for s in enumerate_spaces(2)}
        assert spaces == {
            (0b01, 0b10),  # discrete
            (0b11, 0b10),  # Sierpinski
            (0b01, 0b11),  # Sierpinski, other orientation
            (0b11, 0b11),  # indiscrete
        }

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_spaces(6))

    def test_no_point_is_refused(self):
        for n in (0, -1):
            with pytest.raises(PreconditionError, match="at least one point"):
                next(enumerate_spaces(n))


class TestCompactnessRituals:
    def test_every_open_cover_has_finite_subcover(self):
        # finite spaces are compact: the cover is its own finite subcover,
        # recorded as the open-cover form of compactness
        for space in enumerate_spaces(3):
            opens = [u for u in space.open_sets() if u]
            full = space.full_mask
            for size in (1, 2):
                for cover in combinations(opens, size):
                    union = 0
                    for u in cover:
                        union |= u
                    if union == full:
                        assert union == full  # the subcover is the cover

    def test_finite_intersection_property(self):
        # every closed family with the FIP has nonempty intersection
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                closed = [e for e in range(1 << space.n)
                          if space.is_closed(e)]
                for size in range(1, min(len(closed), 4) + 1):
                    for family in combinations(closed, size):
                        has_fip = all(
                            _intersection(sub) != 0
                            for k in range(1, size + 1)
                            for sub in combinations(family, k))
                        if has_fip:
                            assert _intersection(family) != 0

    def test_closure_membership_reduces_to_spec_matrix(self):
        # the net characterization of closure points collapses, on finite
        # spaces, to a single matrix query
        for n in (1, 2, 3, 4):
            for space in enumerate_spaces(n):
                for e in range(1 << n):
                    ce = closure(space, e)
                    for x in range(n):
                        witness = bool(space.rows[x] & e)
                        assert bool(ce >> x & 1) == witness


def _intersection(family):
    out = family[0]
    for s in family[1:]:
        out &= s
    return out


def all_reflexive_matrices(n):
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in product((False, True), repeat=len(offdiag)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), v in zip(offdiag, bits):
            rel[a][b] = v
        yield rel


def oracle_is_transitive(rel):
    n = len(rel)
    return all(not (rel[a][b] and rel[b][c]) or rel[a][c]
               for a in range(n) for b in range(n) for c in range(n))


def oracle_is_directed(rel):
    """Definition unrolled: reflexive, transitive, pairwise upper bounds."""
    n = len(rel)
    if any(not rel[a][a] for a in range(n)):
        return False
    if not oracle_is_transitive(rel):
        return False
    for a in range(n):
        for b in range(n):
            if not any(rel[a][c] and rel[b][c] for c in range(n)):
                return False
    return True


def directed_indices_upto(n_max):
    for n in range(1, n_max + 1):
        for rel in all_reflexive_matrices(n):
            if oracle_is_directed(rel):
                yield FiniteSpace.from_matrix(rel)


class TestDirectedIndex:
    """A finite net index is the finite space whose preorder is its order;
    ``top_element`` is its directedness check."""

    def test_total_order_is_directed(self):
        chain = [[a <= b for b in range(3)] for a in range(3)]
        assert top_element(FiniteSpace.from_matrix(chain)) == 2

    def test_incomparable_pair_without_bound(self):
        with pytest.raises(PreconditionError):
            top_element(FiniteSpace.from_matrix([[True, False],
                                                 [False, True]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="relation matrix is not square"):
            FiniteSpace.from_matrix([[True, False]])

    def test_agrees_with_bruteforce_on_all_small_reflexive_matrices(self):
        # every reflexive matrix up to 3x3: an intransitive relation is
        # no preorder, and a preorder is an index iff it is directed
        for n in (1, 2, 3):
            for rel in all_reflexive_matrices(n):
                if not oracle_is_transitive(rel):
                    with pytest.raises(MalformedInputError):
                        FiniteSpace.from_matrix(rel)
                    continue
                index = FiniteSpace.from_matrix(rel)
                if oracle_is_directed(rel):
                    top_element(index)
                else:
                    with pytest.raises(PreconditionError):
                        top_element(index)

    def test_a_row_with_an_out_of_range_bit_fails(self):
        for rows in ([0b100, 0b10], [0b01, -1]):
            with pytest.raises(MalformedInputError, match="out-of-range"):
                FiniteSpace(rows)

    def test_missing_reflexivity_fails(self):
        with pytest.raises(MalformedInputError,
                           match="must be reflexive and transitive"):
            FiniteSpace.from_matrix([[False]])

    def test_every_element_below_top(self):
        for index in directed_indices_upto(3):
            top = top_element(index)
            assert all(index.rows[a] >> top & 1 for a in range(index.n))

    def test_least_index_tie_break(self):
        # two equivalent maximal elements 1 and 2: the least index wins
        index = FiniteSpace.from_matrix([
            [True, True, True],
            [False, True, True],
            [False, True, True],
        ])
        assert top_element(index) == 1

    @pytest.mark.parametrize("rel", [[[True, False], [False, True]], []],
                             ids=["incomparable-pair", "empty"])
    def test_undirected_index_has_no_top_element(self, rel):
        with pytest.raises(PreconditionError,
                           match="index order must be directed"):
            top_element(FiniteSpace.from_matrix(rel))


def test_matrix_round_trip():
    space = FiniteSpace.from_matrix([[True, True], [False, True]])
    assert space.rows == SIERPINSKI.rows
    assert space.matrix() == [[True, True], [False, True]]


def oracle_minimal_open_superset(space, e):
    """Union of the minimal open sets of the points of e, bit by bit."""
    out = 0
    for x in range(space.n):
        if e >> x & 1:
            out |= space.rows[x]
    return out


def oracle_set_bits(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


class TestSetBits:
    def test_matches_the_bit_test_scan(self):
        wide = random.Random(0).getrandbits(1 << 16) | 1 << (1 << 16) - 1
        for m in [*range(1 << 10), 255, 256, 257, wide]:
            assert list(set_bits(m)) == oracle_set_bits(m)

    def test_small_masks_read_the_table(self):
        for m in range(256):
            table = set_bits(m)
            assert type(table) is tuple
            assert table == tuple(finite_topology._scan_bits(m))
        assert type(set_bits(256)) is not tuple  # the scan past the table

    @pytest.mark.parametrize("width", [
        256, 257, 1000, DENSE_CHUNK - 1, DENSE_CHUNK, DENSE_CHUNK + 1,
        DENSE_CHUNK + 8, 3 * DENSE_CHUNK + 5, (1 << 16) + 1, (1 << 17) + 1])
    def test_both_paths_match_the_oracle_across_the_chunk_bound(self, width):
        # one bit in ``spread`` set: the dense path takes one in 24 or more
        rng = random.Random(width)
        for spread in (2, 8, 20, 28, 1000):
            picks = rng.sample(range(width - 1), (width - 1) // spread)
            bits = bytearray((width + 7) >> 3)
            for i in picks + [width - 1]:
                bits[i >> 3] |= 1 << (i & 7)
            m = int.from_bytes(bits, "little")
            assert list(set_bits(m)) == oracle_set_bits(m)

    @pytest.mark.parametrize("width", [256, DENSE_CHUNK + 1, (1 << 17) + 1])
    def test_empty_full_and_lone_high_bit(self, width):
        assert list(set_bits(0)) == []
        assert list(set_bits((1 << width) - 1)) == list(range(width))
        assert list(set_bits(1 << width - 1)) == [width - 1]

    def test_a_dense_walk_holds_one_chunk_at_a_time(self):
        # a list of all 2^20 indices takes 42 MB, the bytes of the mask
        # 128 kB and one chunk 160 kB
        full = (1 << (1 << 20)) - 1
        tracemalloc.start()
        try:
            count = sum(1 for _ in set_bits(full))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1 << 20
        assert peak < 1_000_000, f"walking 2^20 bits peaked at {peak} B"


class TestMinimalOpenSuperset:
    def test_matches_the_bit_walk_on_every_subset(self):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                for _ in range(2):  # the second pass reads the memo
                    for e in range(1 << n):
                        assert space.minimal_open_superset(e) == \
                            oracle_minimal_open_superset(space, e)
                        assert space.is_open(space.minimal_open_superset(e))

    def test_out_of_range_sets_keep_raising(self):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                SIERPINSKI.minimal_open_superset(0b100)

    def test_full_mask_is_fixed_at_construction(self):
        for n in (1, 2, 3):
            assert discrete_space(n).full_mask == (1 << n) - 1


class TestMemos:
    def test_closure_memo_matches_a_fresh_space(self):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                for _ in range(2):  # the second pass reads the memo
                    for e in range(1 << n):
                        assert closure(space, e) == space.closure(e) == \
                            closure(FiniteSpace(space.rows), e)

    def test_out_of_range_closures_keep_raising(self):
        for bad in (0b100, -1):
            for _ in range(2):
                with pytest.raises(PreconditionError):
                    closure(SIERPINSKI, bad)
                assert closure(SIERPINSKI, 0b10) == 0b11

    @pytest.mark.parametrize("bad", [True, False, 1.0, [1]],
                             ids=["True", "False", "float", "list"])
    def test_a_non_int_set_is_refused_after_its_equal_is_cached(self, bad):
        # True == 1 == 1.0 hash alike, so the memo must not answer them
        space = discrete_space(3)
        for ask in (space.closure, space.minimal_open_superset):
            for _ in range(2):  # the second pass follows the int's entry
                with pytest.raises(PreconditionError, match="point set"):
                    ask(bad)
                assert ask(0) == 0 and ask(1) == 1

    def test_open_sets_are_listed_once(self):
        space = FiniteSpace([0b11, 0b10])
        first = space.open_sets()
        assert space.open_sets() is first
        assert first == [u for u in range(4) if space.is_open(u)] == [0, 2, 3]
