import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitset_lab.errors import (MalformedInputError, PreconditionError,
                                 UndefinedCaseError, UnsupportedRuleError)
from limitset_lab import semiflow_cells
from limitset_lab.pseudometric_core import RationalPointSpace
from limitset_lab.rationals import INFINITY
from limitset_lab.semiflow_cells import (CellGrid, DiscreteSemiflow,
                                         attraction_trace_check, cell_image,
                                         omega_limit_cells)
from limitset_lab.subset_nets import Periodic, SubsetNet, analyze, limit_set


def cells_of(mask, total=None):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def pairwise_semidistance(grid, a, b):
    """Brute-force d(a; b): max over a's centers of the least max-norm
    distance to one of b's centers, in exact fractions."""
    if a == 0:
        return 0
    if b == 0:
        return INFINITY
    centers_b = [grid.center(j) for j in cells_of(b)]
    return max(min(max(abs(x - y) for x, y in zip(grid.center(i), cb))
                   for cb in centers_b)
               for i in cells_of(a))


def neighbour_box_dilate(grid, cells):
    """Brute-force dilation: every cell of each input cell's 3^dim box."""
    n = grid.cells_per_axis
    out = 0
    for i in cells_of(cells):
        base = grid.coords(i)
        for shift in product((-1, 0, 1), repeat=grid.dim):
            near = tuple(c + d for c, d in zip(base, shift))
            if all(0 <= c < n for c in near):
                out |= 1 << grid.index(near)
    return out


def reference_samples(grid, index, k):
    """k^dim sample points of a cell, at sub-cell midpoints, as fractions."""
    n = grid.cells_per_axis
    return list(product(*([F(2 * (c * k + j) + 1, 2 * n * k)
                           for j in range(k)] for c in grid.coords(index))))


def exact_map_point(flow, point):
    """The builtin point maps on fractions; henon's image is left off the
    box where it falls there, for the cell floor to clamp."""
    if flow.kind == "logistic":
        (r,), (x,) = flow.params, point
        return (r * x * (1 - x),)
    if flow.kind == "tent":
        (mu,), (x,) = flow.params, point
        return (mu * min(x, 1 - x),)
    if flow.kind == "rotation":
        return ((point[0] + flow.params[0]) % 1,)
    if flow.kind == "henon":
        # the classic map on [-3/2, 3/2] x [-2/5, 2/5], rescaled to the box
        a, b = flow.params
        x = 3 * point[0] - F(3, 2)
        y = F(4, 5) * point[1] - F(2, 5)
        return ((1 - a * x * x + y + F(3, 2)) / 3, (b * x + F(2, 5)) / F(4, 5))
    raise AssertionError(f"no point map for {flow.kind}")


def cell_of(grid, image):
    """The cell holding an image point: floor(u n) along each axis, clamped
    into the grid (off the box to the nearest cell, and 1 into the last
    cell, which is closed)."""
    n = grid.cells_per_axis
    return grid.index(tuple(min(n - 1, max(0, floor(u * n))) for u in image))


def reference_hits(grid, flow, index, k):
    """Cells hit from one cell, one exact sample at a time."""
    return sum(1 << c for c in {
        cell_of(grid, exact_map_point(flow, point))
        for point in reference_samples(grid, index, k)})


def float_hits(grid, flow, index, k):
    """Cells hit from one cell by the float route the sampler once took:
    float parameters and sample points, each image floored from a float."""
    n = grid.cells_per_axis
    offs = [(j + 0.5) / k for j in range(k)]
    params = tuple(float(p) for p in flow.params)
    out = set()
    for point in product(*([(c + o) / n for o in offs]
                           for c in grid.coords(index))):
        x = point[0]
        if flow.kind == "logistic":
            image = (params[0] * x * (1.0 - x),)
        elif flow.kind == "tent":
            image = (params[0] * (x if x < 0.5 else 1.0 - x),)
        elif flow.kind == "rotation":
            image = ((x + params[0]) % 1.0,)
        else:
            a, b = params
            x, y = 3.0 * x - 1.5, 0.8 * point[1] - 0.4
            image = (min(1.0, max(0.0, (1.0 - a * x * x + y + 1.5) / 3.0)),
                     min(1.0, max(0.0, (b * x + 0.4) / 0.8)))
        out.add(cell_of(grid, image))
    return sum(1 << c for c in out)


# Where the float route floors a sample a cell too low: (map, parameters,
# cells per axis, samples, cell) -> n f(x) of the sample, exactly an
# integer, whose float falls just below it.
FLOAT_ROUNDING = {
    ("tent", (F(36, 25),), 64, 3, 20): 30,  # float 29.999999999999996
    ("tent", (F(36, 25),), 64, 3, 34): 42,  # float 41.99999999999999
    ("tent", (F(36, 25),), 64, 3, 59): 6,  # float 5.9999999999999964
    ("tent", (F(48, 25),), 128, 3, 20): 40,  # float 39.99999999999999
}


def assert_sampled_exactly(grid, flow, index, k):
    """``cell_image`` of one cell hits what the exact reference hits.  So
    does the float route, except on a listed case, where it floors the one
    sample at the listed integer a cell too low."""
    n = grid.cells_per_axis
    key = (flow.kind, flow.params, n, k, index)
    images = [exact_map_point(flow, p) for p in reference_samples(grid, index, k)]
    exact = sum(1 << c for c in {cell_of(grid, image) for image in images})
    assert cell_image(grid, flow, 1 << index, samples=k) == exact, key
    value = FLOAT_ROUNDING.get(key)
    if value is None:
        assert float_hits(grid, flow, index, k) == exact, (
            "a float rounding case missing from FLOAT_ROUNDING", key,
            [tuple(u * n for u in image) for image in images])
    else:
        assert [image[0] * n for image in images].count(value) == 1, key
        cells = {value - 1 if image[0] * n == value else cell_of(grid, image)
                 for image in images}
        assert float_hits(grid, flow, index, k) == sum(1 << c for c in cells)


def random_cells(rng, grid):
    """A random cell set: sparse, dense, or a few edge and corner cells."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(1 << grid.total)
    n, last = grid.cells_per_axis, grid.cells_per_axis - 1
    if kind == 1:
        picks = [rng.randrange(grid.total) for _ in range(3)]
    else:
        edges = [grid.index(c) for c in product((0, last), repeat=grid.dim)]
        edges += [grid.index((rng.randrange(n),) + (0,) * (grid.dim - 1))]
        picks = rng.sample(edges, rng.randint(1, 2))
    return sum(1 << i for i in set(picks))


GRIDS = [CellGrid(dim, n) for dim in (1, 2) for n in (1, 2, 4, 8, 16)]


@st.composite
def sampled_cells(draw):
    """A builtin flow with parameters p/q, q <= 1000, on a 1-D grid of at
    most 64 cells or a plane grid of at most 16 x 16; samples 1 to 9; and
    a few cells of the grid."""
    kind = draw(st.sampled_from(["logistic", "tent", "rotation", "henon"]))
    # parameter ranges: logistic [0, 4], tent [0, 2], and any rotation;
    # henon a and b of both signs, around the classic 7/5 and 3/10
    spans = {"logistic": [(0, 4)], "tent": [(0, 2)], "rotation": [(-3, 3)],
             "henon": [(-2, 2), (-1, 1)]}[kind]
    params = []
    for lo, hi in spans:
        q = draw(st.integers(1, 1000))
        params.append(F(draw(st.integers(lo * q, hi * q)), q))
    flow = DiscreteSemiflow(kind, params)
    dim = flow.dim
    grid = CellGrid(dim, 1 << draw(st.integers(0, 6 if dim == 1 else 4)))
    cells = draw(st.lists(st.integers(0, grid.total - 1), min_size=1,
                          max_size=4, unique=True))
    return grid, flow, draw(st.integers(1, 9)), cells


class TestCellGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(MalformedInputError):
            CellGrid(1, 3)
        with pytest.raises(MalformedInputError):
            CellGrid(1, 8192)
        with pytest.raises(MalformedInputError):
            CellGrid(3, 8)

    @pytest.mark.parametrize("dim, n", [(2.0, 8), (1, True), (1, 8.0),
                                        (True, 8), (1, "8")])
    def test_sizes_must_be_ints(self, dim, n):
        # a bool equals 1 and a float 2.0 equals 2, but neither is a size
        with pytest.raises(MalformedInputError):
            CellGrid(dim, n)

    def test_centers_are_exact(self):
        g = CellGrid(1, 4)
        assert g.center(2) == (F(5, 8),)
        g2 = CellGrid(2, 2)
        assert g2.center(3) == (F(3, 4), F(3, 4))

    def test_two_dimensional_indexing(self):
        g = CellGrid(2, 4)
        for i in range(16):
            assert g.index(g.coords(i)) == i


class TestDiscreteSemiflow:
    @pytest.mark.parametrize("kind, params", [
        ("rotation", (10 ** 400 - 1,)),
        ("rotation", (F(10 ** 400 - 1, 7),)),
        ("rotation", (F(-10 ** 400, 3),)),
        ("henon", (F(1, 2), 10 ** 400 - 1)),
        ("henon", (10 ** 5000, F(3, 10)))])
    def test_parameter_beyond_every_float_runs_exactly(self, kind, params):
        flow = DiscreteSemiflow(kind, params)
        grid = CellGrid(flow.dim, 8)
        for i in range(grid.total):
            assert (cell_image(grid, flow, 1 << i, samples=2)
                    == reference_hits(grid, flow, i, 2)), i

    def test_table_flow_needs_a_table_and_a_kind_must_be_known(self):
        with pytest.raises(MalformedInputError, match="needs a table"):
            DiscreteSemiflow("table")
        with pytest.raises(UnsupportedRuleError, match="unknown map: cubic"):
            DiscreteSemiflow("cubic", (F(1, 2),))

    @pytest.mark.parametrize("kind, params, message", [
        ("logistic", (1, 2), "logistic takes 1 parameter(s), got 2"),
        ("henon", (F(7, 5),), "henon takes 2 parameter(s), got 1"),
        ("rotation", (), "rotation takes 1 parameter(s), got 0"),
        ("logistic", (F(41, 10),), "logistic parameter must be in [0, 4]"),
        ("logistic", (-1,), "logistic parameter must be in [0, 4]"),
        ("tent", (F(-1, 10 ** 400),), "tent parameter must be in [0, 2]"),
        ("tent", (3,), "tent parameter must be in [0, 2]"),
        # the count is refused before any parameter's range
        ("logistic", (5, 5), "logistic takes 1 parameter(s), got 2"),
        ("tent", (), "tent takes 1 parameter(s), got 0")])
    def test_builtin_parameters_are_refused_with_their_text(
            self, kind, params, message):
        with pytest.raises(MalformedInputError) as caught:
            DiscreteSemiflow(kind, params)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind, params, table, message", [
        ("table", (5, 7), (0b10, 0b01), "table flow takes no parameters"),
        ("logistic", (2,), (1,), "logistic takes no table"),
        ("henon", (1, 1), (), "henon takes no table")])
    def test_an_argument_the_kind_ignores_is_refused(self, kind, params,
                                                     table, message):
        # kept, it would be ignored: a table flow steps by its table alone
        with pytest.raises(MalformedInputError) as caught:
            DiscreteSemiflow(kind, params, table=table)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind, params", [
        ("logistic", (0,)), ("logistic", (4,)), ("tent", (0,)),
        ("tent", (2,)), ("rotation", (-7,)), ("henon", (-9, 9))])
    def test_range_ends_are_accepted_and_unbounded_parameters_are_free(
            self, kind, params):
        flow = DiscreteSemiflow(kind, params)
        assert flow.params == tuple(map(F, params))
        # logistic's and tent's parameter bounds their slope
        assert flow.slope == (params[0] if kind in ("logistic", "tent")
                              else None)

    def test_tiny_parameter_is_kept_exact(self):
        tiny = F(1, 10 ** 400)  # 2 - tiny is 2.0 as a float
        flow = DiscreteSemiflow("tent", (2 - tiny,))
        assert flow.params == (2 - tiny,)
        # tent 2 sends cell 0's midpoint 1/8 to 1/4, the left end of cell 1
        g = CellGrid(1, 4)
        assert cell_image(g, DiscreteSemiflow("tent", (2,)), 0b1) == 0b10
        assert cell_image(g, flow, 0b1) == 0b1


class TestCellImage:
    def test_identity_table_flow(self):
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=tuple(1 << i for i in range(4)))
        for cells in range(16):
            assert cell_image(g, flow, cells) == cells

    def test_exact_rotation_is_a_cyclic_shift(self):
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("rotation", (F(1, 4),))
        assert cell_image(g, flow, 0b0001) == 0b0010
        assert cell_image(g, flow, 0b1000) == 0b0001
        # oracle: direct computation of each cell's image
        for i in range(4):
            lo, hi = F(i, 4), F(i + 1, 4)
            expect = {cell_of(g, ((x + F(1, 4)) % 1,))
                      for x in (lo, (lo + hi) / 2, hi - F(1, 10 ** 9))}
            assert set(cells_of(cell_image(g, flow, 1 << i))) == expect

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_rotation_shift_is_the_sampled_image(self, k):
        # every angle s/n the shift takes, on every grid up to 256 cells
        for n in (1 << e for e in range(9)):
            grid = CellGrid(1, n)
            for s in range(-2 * n, 2 * n + 1):
                flow = DiscreteSemiflow("rotation", (F(s, n),))
                shift = flow.exact_rotation_shift(grid)
                hits = semiflow_cells._sampler(grid, flow, k)
                assert [hits(i) for i in range(n)] == [
                    ((i + shift) % n,) for i in range(n)], (n, s)

    def test_exact_rotation_dilates_its_shift(self):
        # the shift is every sample's image, so the outer cover dilates it
        rng = random.Random(283)
        for n in (1 << e for e in range(7)):
            grid = CellGrid(1, n)
            sets = [1 << i for i in range(n)]
            sets += [rng.randrange(1, 1 << n) for _ in range(4)]
            for s in range(-n, 2 * n + 1):
                flow = DiscreteSemiflow("rotation", (F(s, n),))
                assert flow.exact_rotation_shift(grid) is not None
                for cells in sets:
                    assert (cell_image(grid, flow, cells, dilate=True)
                            == grid.dilate(cell_image(grid, flow, cells))), \
                        (n, s, cells)
        # angle 1/8 on 8 cells steps cell 0 to cell 1, dilated to 0b111,
        # as the sampled angle 1/9 does
        g = CellGrid(1, 8)
        for theta in (F(1, 8), F(1, 9)):
            flow = DiscreteSemiflow("rotation", (theta,))
            assert cell_image(g, flow, 0b1, dilate=True) == 0b111, theta
            assert omega_limit_cells(g, flow, 0b1, dilate=True).omega \
                == g.full_mask, theta

    def test_floor_rounding_and_closed_right_edge(self):
        # tent 2 sends the midpoint of cell i of 4 to n f(x) = 2i + 1 or
        # 7 - 2i, the left end of cell 1 or 3: each lands in that cell
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("tent", (2,))
        assert [cell_image(g, flow, 1 << i) for i in range(4)] == [
            0b10, 0b1000, 0b1000, 0b10]
        # on one cell, the midpoint maps to 1, in the last cell, closed at 1
        assert cell_image(CellGrid(1, 1), flow, 0b1) == 0b1

    def test_logistic_fixed_point_cell(self):
        # f(x) = 2x(1-x) fixes 0.5; the midpoint sample of its cell maps
        # just below 0.5, so the default image is cell 31, while the
        # dilated outer mode keeps the fixed-point cell itself
        g = CellGrid(1, 64)
        flow = DiscreteSemiflow("logistic", (2,))
        half_cell = 1 << 32
        assert cell_image(g, flow, half_cell) == 1 << 31
        outer = cell_image(g, flow, half_cell, samples=8, dilate=True)
        assert outer >> 32 & 1

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_sampler_matches_reference_hits(self, k):
        runs = [(CellGrid(1, n), DiscreteSemiflow(kind, (param,)))
                for n in (1, 2, 64, 4096)
                for kind, param in [("logistic", 0), ("logistic", 4),
                                    ("logistic", F(39, 10)), ("tent", 0),
                                    ("tent", 2), ("rotation", F(1, 7)),
                                    ("rotation", F(2, 3 * n))]]
        runs += [(CellGrid(2, n), DiscreteSemiflow("henon", (F(7, 5), F(3, 10))))
                 for n in (2, 16, 64)]
        for grid, flow in runs:
            assert flow.exact_rotation_shift(grid) is None
            for i in range(grid.total):
                assert_sampled_exactly(grid, flow, i, k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=sampled_cells())
    @example(case=(CellGrid(1, 64), DiscreteSemiflow("tent", (F(36, 25),)),
                   3, [20, 34, 59]))
    @example(case=(CellGrid(1, 128), DiscreteSemiflow("tent", (F(48, 25),)),
                   3, [20]))
    def test_sampler_matches_exact_samples(self, case):
        grid, flow, k, cells = case
        for i in cells:
            assert_sampled_exactly(grid, flow, i, k)

    def test_float_rounding_cases_are_listed_exactly(self):
        # each listed case is one the float route gets wrong, and the exact
        # sample lands on the left end of its cell
        for (kind, params, n, k, i), value in FLOAT_ROUNDING.items():
            grid, flow = CellGrid(1, n), DiscreteSemiflow(kind, params)
            assert float_hits(grid, flow, i, k) != reference_hits(
                grid, flow, i, k)
            assert cell_image(grid, flow, 1 << i, samples=k) >> value & 1
            assert_sampled_exactly(grid, flow, i, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sampler_clamps_images_off_the_grid(self, k):
        # (map, axis, side) -> the (parameters, cells per axis) whose
        # exact samples fall off the grid there, floored before the clamp
        henon = [(F(7, 5), F(3, 10)), (F(-7, 5), F(3, 10))]
        runs = [(CellGrid(2, n), DiscreteSemiflow("henon", params))
                for n in (1, 4, 16) for params in henon]
        runs += [(CellGrid(1, n), DiscreteSemiflow(kind, (param,)))
                 for n in (1, 2, 64)
                 for kind, param in [("logistic", 4), ("tent", 2),
                                     ("rotation", F(-1, 3))]]
        reached = {}
        for grid, flow in runs:
            n = grid.cells_per_axis
            for i in range(grid.total):
                for point in reference_samples(grid, i, k):
                    for axis, u in enumerate(exact_map_point(flow, point)):
                        if not 0 <= floor(u * n) < n:
                            side = "below" if u < 0 else "above"
                            reached.setdefault((flow.kind, axis, side),
                                               set()).add((flow.params, n))
                assert (cell_image(grid, flow, 1 << i, samples=k)
                        == reference_hits(grid, flow, i, k)), (flow.kind, n, i)
        # henon 7/5 3/10 clamps x below and y on both sides, a negative a x
        # above; the interval maps reach only the top, at 1, on one cell
        tops = {("logistic", 0, "above"): {((4,), 1)},
                ("tent", 0, "above"): {((2,), 1)}} if k % 2 else {}
        assert set(reached) == {("henon", axis, side) for axis in (0, 1)
                                for side in ("below", "above")} | set(tops)
        assert all(any(p == henon[0] for p, _ in reached[("henon", axis,
                                                          side)])
                   for axis, side in [(0, "below"), (1, "below"),
                                      (1, "above")])
        assert {p for p, _ in reached[("henon", 0, "above")]} == {henon[1]}
        assert {key: reached[key] for key in tops} == tops

    @pytest.mark.parametrize("samples, dilate", [(8, True), (2, False),
                                                 (1, True)])
    def test_table_flow_refuses_samples_and_dilation(self, samples, dilate):
        # a table row is the image; sampling or dilating it would be ignored
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=(0b10, 0b100, 0b1000, 0b1))
        with pytest.raises(PreconditionError, match="table"):
            cell_image(g, flow, 0b1, samples=samples, dilate=dilate)
        with pytest.raises(PreconditionError, match="table"):
            omega_limit_cells(g, flow, 0b1, samples=samples, dilate=dilate)
        assert cell_image(g, flow, 0b1) == 0b10

    @pytest.mark.parametrize("samples", [0, -1, 65, 10**9,
                                         True, 2.5, 2.0, "2", F(2)])
    def test_samples_out_of_range_rejected_before_sampling(self, samples,
                                                           monkeypatch):
        built = []
        monkeypatch.setattr(semiflow_cells, "_sampler",
                            lambda *args: built.append(args))
        g = CellGrid(1, 8)
        flow = DiscreteSemiflow("logistic", (2,))
        with pytest.raises(PreconditionError, match="samples"):
            cell_image(g, flow, 0b1111, samples=samples)
        with pytest.raises(PreconditionError, match="samples"):
            omega_limit_cells(g, flow, 0b1111, samples=samples)
        assert not built

    @pytest.mark.parametrize("cells", [True, False, 3.0, "3", F(3), None])
    def test_cell_sets_must_be_ints(self, cells):
        # an exact rotation shifts without sampling, so it must not slip by
        g = CellGrid(1, 8)
        for flow in (DiscreteSemiflow("logistic", (2,)),
                     DiscreteSemiflow("rotation", (F(1, 8),))):
            with pytest.raises(PreconditionError, match="is not a bitmask"):
                cell_image(g, flow, cells)
            with pytest.raises(PreconditionError, match="is not a bitmask"):
                omega_limit_cells(g, flow, cells)
        with pytest.raises(PreconditionError, match="is not a bitmask"):
            g.semidistance(cells, 0b1)
        with pytest.raises(PreconditionError, match="is not a bitmask"):
            g.semidistance(0b1, cells)

    @pytest.mark.parametrize("table", [(0b10, 0b100), (0b1,) * 5, ()])
    def test_table_of_the_wrong_length_rejected_before_a_step(self, table):
        # the CLI relies on this check; the library must not index past it
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=table)
        with pytest.raises(PreconditionError, match="table size"):
            cell_image(g, flow, 0b1)
        with pytest.raises(PreconditionError, match="table size"):
            omega_limit_cells(g, flow, 0b1)

    @pytest.mark.parametrize("theta", [F(1, 8), F(1, 24), F(0)])
    def test_dimension_checked_before_the_exact_rotation_shift(self, theta):
        # an exact 1-D rotation shift must not bypass the dimension check
        g = CellGrid(2, 8)
        flow = DiscreteSemiflow("rotation", (theta,))
        with pytest.raises(PreconditionError, match="dimension"):
            cell_image(g, flow, 1 << 7)
        with pytest.raises(PreconditionError, match="dimension"):
            omega_limit_cells(g, flow, 1 << 7)

    @pytest.mark.parametrize("bad", [1 << 9, 1 << 4, -1])
    def test_every_table_row_checked_before_a_step(self, bad):
        # the bad row's cell is never visited from cell 0
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=(1, 1, 1, bad))
        with pytest.raises(PreconditionError, match="outside the grid"):
            cell_image(g, flow, 0b1)
        with pytest.raises(PreconditionError, match="outside the grid"):
            omega_limit_cells(g, flow, 0b1)

    def test_parameter_validation(self):
        with pytest.raises(MalformedInputError):
            DiscreteSemiflow("logistic", (5,))
        with pytest.raises(MalformedInputError):
            DiscreteSemiflow("tent", (3,))

    def test_dilation_stays_inside_grid(self):
        g = CellGrid(1, 4)
        assert g.dilate(0b0001) == 0b0011
        assert g.dilate(0b1000) == 0b1100
        g2 = CellGrid(2, 2)
        assert g2.dilate(1 << 0) == 0b1111  # corner cell fills the 2x2 box

    def test_dilation_matches_neighbour_boxes(self):
        rng = random.Random(21)
        for grid in GRIDS:
            assert grid.dilate(0) == 0
            assert grid.dilate(grid.full_mask) == grid.full_mask
            for _ in range(40):
                cells = random_cells(rng, grid)
                assert grid.dilate(cells) == neighbour_box_dilate(grid, cells)
        # a run of cells along the right edge must not wrap to the left
        g = CellGrid(2, 4)
        right_edge = sum(1 << g.index((3, y)) for y in range(4))
        assert g.dilate(right_edge) == right_edge | right_edge >> 1


def counted_cell_map(flow):
    """Count the cell map calls of every sampler built for ``flow``."""
    calls = [0]
    build = flow.cell_map

    def counting(n, k, *params):
        cell = build(n, k, *params)

        def counted(*m):
            calls[0] += 1
            return cell(*m)
        return counted
    flow.cell_map = counting
    return calls


class TestSampledRuns:
    """Logistic and tent cells read their hits off two end samples when the
    slope bound covers the run between them; henon tables its terms."""

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_runs_match_reference_hits(self, k):
        eps = F(1, 1000)
        for kind, top in (("logistic", 4), ("tent", 2)):
            params = {p for p in (k - eps, F(k), k + eps, F(top), F(1))
                      if 0 <= p <= top}
            for param, n in product(sorted(params), (1, 2, 4, 64)):
                grid = CellGrid(1, n)
                flow = DiscreteSemiflow(kind, (param,))
                calls = counted_cell_map(flow)
                hits = semiflow_cells._sampler(grid, flow, k)
                for i in range(n):
                    assert (sum(1 << c for c in hits(i))
                            == reference_hits(grid, flow, i, k)), \
                        (kind, param, n, i)
                certified = n > 1 and param <= k
                assert calls[0] == n * (2 if certified else k), (kind, param)

    @pytest.mark.parametrize("param, k, hits", [(4, 2, 0b101),
                                                (F(39, 10), 3, 0b1011)])
    def test_steep_cells_keep_their_gaps(self, param, k, hits):
        # slope above k: consecutive samples skip a cell, so the hits of
        # cell 0 are no run and every sample is floored
        grid, flow = CellGrid(1, 64), DiscreteSemiflow("logistic", (param,))
        assert reference_hits(grid, flow, 0, k) == hits
        assert cell_image(grid, flow, 0b1, samples=k) == hits

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tabled_henon_matches_reference_hits(self, k):
        for params in ((F(7, 5), F(3, 10)), (F(-7, 5), F(3, 10)),
                       (F(-1, 3), F(-9, 10))):
            flow = DiscreteSemiflow("henon", params)
            for n in (1, 2, 8, 16):
                grid = CellGrid(2, n)
                hits = semiflow_cells._sampler(grid, flow, k)
                for i in range(grid.total):
                    assert (sum(1 << c for c in hits(i))
                            == reference_hits(grid, flow, i, k)), (params, n, i)

    def test_two_evaluations_per_visited_cell(self, monkeypatch):
        # the omega benchmark's dilated logistic run: 39/10 <= 8 samples
        visited = [0]
        sampler = semiflow_cells._sampler

        def counting_sampler(*args):
            hits = sampler(*args)

            def counted(i):
                visited[0] += 1
                return hits(i)
            return counted
        monkeypatch.setattr(semiflow_cells, "_sampler", counting_sampler)
        grid = CellGrid(1, 1024)
        flow = DiscreteSemiflow("logistic", (F(39, 10),))
        calls = counted_cell_map(flow)
        omega_limit_cells(grid, flow, random_half(1, grid.total), samples=8,
                          dilate=True)
        assert visited[0] > 0 and calls[0] == 2 * visited[0]


class TestOmegaLimitCells:
    def test_a_run_past_the_step_limit_is_refused(self, monkeypatch):
        # a shift around 8 cells returns to its start after 8 steps
        g = CellGrid(1, 8)
        flow = DiscreteSemiflow("table",
                                table=tuple(1 << (i + 1) % 8 for i in range(8)))
        monkeypatch.setattr(semiflow_cells, "MAX_OMEGA_STEPS", 8)
        assert omega_limit_cells(g, flow, 0b1).period == 8
        monkeypatch.setattr(semiflow_cells, "MAX_OMEGA_STEPS", 7)
        with pytest.raises(PreconditionError, match="step limit"):
            omega_limit_cells(g, flow, 0b1)

    def test_identity_flow(self):
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=tuple(1 << i for i in range(4)))
        res = omega_limit_cells(g, flow, 0b0101)
        assert res.omega == 0b0101
        assert res.preperiod == 0 and res.period == 1
        assert attraction_trace_check(res)

    def test_sizes_count_the_reiterated_states(self):
        rng = random.Random(23)
        runs = [(CellGrid(1, 64), DiscreteSemiflow("logistic", (F(39, 10),)), {}),
                (CellGrid(1, 64), DiscreteSemiflow("tent", (F(3, 2),)),
                 {"samples": 4, "dilate": True}),
                (CellGrid(1, 32), DiscreteSemiflow("rotation", (F(1, 7),)), {}),
                (CellGrid(1, 32), DiscreteSemiflow("rotation", (F(3, 32),)), {}),
                (CellGrid(2, 16), DiscreteSemiflow("henon", (F(7, 5), F(3, 10))),
                 {"samples": 2})]
        for grid, flow, kw in runs:
            for _ in range(3):
                state = rng.randrange(1, 1 << grid.total)
                res = omega_limit_cells(grid, flow, state, **kw)
                assert len(res.sizes) == len(res.trace)
                for size in res.sizes:
                    assert size == bin(state).count("1")
                    state = cell_image(grid, flow, state, **kw)

    @pytest.mark.parametrize("samples", [1, 2, 8])
    @pytest.mark.parametrize("dilate", [False, True])
    def test_trace_rows_match_pairwise_centers(self, samples, dilate):
        rng = random.Random(24 + samples + 10 * dilate)
        henon = DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))
        runs = [(CellGrid(1, 32), DiscreteSemiflow("logistic", (F(39, 10),))),
                (CellGrid(1, 32), DiscreteSemiflow("logistic", (2,))),
                (CellGrid(1, 16), DiscreteSemiflow("tent", (F(3, 2),))),
                (CellGrid(1, 16), DiscreteSemiflow("rotation", (F(1, 8),))),
                (CellGrid(1, 16), DiscreteSemiflow("rotation", (F(1, 7),))),
                (CellGrid(2, 4), henon), (CellGrid(2, 8), henon)]
        for n in (1, 4, 16):
            table = tuple(random_cells(rng, CellGrid(1, n)) if rng.random() < 0.8
                          else 0 for _ in range(n))
            if samples == 1 and not dilate:  # a table takes neither
                runs.append((CellGrid(1, n),
                             DiscreteSemiflow("table", table=table)))
        for grid, flow in runs:
            for _ in range(4):
                init = random_cells(rng, grid) or 1
                res = omega_limit_cells(grid, flow, init, samples=samples,
                                        dilate=dilate)
                state = init
                for n, d in res.trace:
                    assert d == pairwise_semidistance(grid, state, res.omega), \
                        (flow.kind, grid.dim, init, n)
                    state = cell_image(grid, flow, state, samples=samples,
                                       dilate=dilate)
                assert [n for n, _ in res.trace] == list(range(len(res.trace)))

    def test_empty_omega_ends(self, monkeypatch):
        # every cell maps to nothing: the orbit dies after one step, and the
        # chain of an empty omega, which would never cover I_0, is not dilated
        def no_dilation(grid, cells):
            raise AssertionError("an empty omega was dilated")
        monkeypatch.setattr(CellGrid, "dilate", no_dilation)
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("table", table=(0, 0, 0, 0))
        res = omega_limit_cells(g, flow, 0b0011)
        assert res.omega == 0
        assert res.preperiod == 1 and res.period == 1
        assert res.trace == ((0, INFINITY), (1, 0))
        assert res.trace[0][1] == INFINITY and res.trace[1][1] != INFINITY
        assert attraction_trace_check(res)

    def test_empty_start_rejected(self):
        g = CellGrid(1, 4)
        flow = DiscreteSemiflow("rotation", (F(1, 4),))
        with pytest.raises(PreconditionError):
            omega_limit_cells(g, flow, 0)

    def test_rotation_eighth_visits_everything(self):
        g = CellGrid(1, 8)
        flow = DiscreteSemiflow("rotation", (F(1, 8),))
        res = omega_limit_cells(g, flow, 1)
        assert res.omega == g.full_mask
        assert res.preperiod == 0 and res.period == 8
        assert attraction_trace_check(res)

    def test_logistic_contracts_to_the_interior_fixed_point(self):
        g = CellGrid(1, 64)
        flow = DiscreteSemiflow("logistic", (2,))
        res = omega_limit_cells(g, flow, g.full_mask)
        # omega sits within 2 cells of x = 0.5 once the invariant-endpoint
        # artifact cells are excluded (x = 0 is a fixed point, so its cell
        # can never leave the image of the full box)
        endpoint_artifacts = {0, 63}
        near_half = set(range(30, 35))
        core = set(cells_of(res.omega)) - endpoint_artifacts
        assert core and core <= near_half
        assert attraction_trace_check(res)

    def test_trace_zero_at_preperiod_for_random_starts(self):
        rng = random.Random(12)
        g = CellGrid(1, 64)
        flows = [DiscreteSemiflow("logistic", (2,)),
                 DiscreteSemiflow("tent", (F(3, 2),)),
                 DiscreteSemiflow("rotation", (F(1, 8),))]
        for flow in flows:
            for _ in range(5):
                init = rng.randrange(1, 1 << 64)
                res = omega_limit_cells(g, flow, init)
                assert attraction_trace_check(res)
                d_at_pre = dict(res.trace)[res.preperiod]
                assert d_at_pre == 0

    def test_omega_forward_invariant_at_cell_level(self):
        rng = random.Random(13)
        g = CellGrid(1, 64)
        flows = [DiscreteSemiflow("logistic", (F(7, 2),)),
                 DiscreteSemiflow("tent", (2,)),
                 DiscreteSemiflow("rotation", (F(3, 8),)),
                 DiscreteSemiflow("rotation", (F(1, 7),))]
        for flow in flows:
            for _ in range(5):
                init = rng.randrange(1, 1 << 64)
                res = omega_limit_cells(g, flow, init)
                img = cell_image(g, flow, res.omega)
                assert img & ~res.omega == 0  # union of cycle images, rotated
                assert img & ~g.dilate(res.omega) == 0

    def test_henon_two_dimensional_run(self):
        g = CellGrid(2, 16)
        flow = DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))
        res = omega_limit_cells(g, flow, g.full_mask)
        assert res.omega
        img = cell_image(g, flow, res.omega)
        assert img & ~res.omega == 0

    def test_cross_module_limit_set_consistency(self):
        # the run, read as a periodic subset net of exact cell centers, has
        # the limit set, verdicts and trace of the run as a net over the
        # grid: pairwise Fraction distances on one side, the grid's
        # dilation chain on the other
        rng = random.Random(14)
        line = CellGrid(1, 32)
        henon = DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))
        runs = [(line, DiscreteSemiflow("logistic", (2,)), 1, False),
                (line, DiscreteSemiflow("tent", (F(3, 2),)), 1, False),
                (line, DiscreteSemiflow("rotation", (F(1, 4),)), 1, False),
                (line, DiscreteSemiflow("tent", (2,)), 1, False),
                (CellGrid(2, 8), henon, 1, False),
                (line, DiscreteSemiflow("logistic", (F(39, 10),)), 8, True)]
        for grid, flow, samples, dilate in runs:
            space = RationalPointSpace(grid.dim)

            def centers(cells):
                return frozenset(grid.center(i) for i in cells_of(cells))

            for _ in range(5):
                init = rng.randrange(1, 1 << grid.total)
                res = omega_limit_cells(grid, flow, init, samples=samples,
                                        dilate=dilate)
                states = [init]
                for _ in range(res.preperiod + res.period - 1):
                    states.append(cell_image(grid, flow, states[-1],
                                             samples=samples, dilate=dilate))
                pre, cycle = states[:res.preperiod], states[res.preperiod:]
                cell_net = SubsetNet.over_znn(grid, pre,
                                              Periodic(tuple(cycle)))
                center_net = SubsetNet.over_znn(
                    space, list(map(centers, pre)),
                    Periodic(tuple(map(centers, cycle))))
                omega = centers(res.omega)
                assert limit_set(center_net) == omega
                assert (replace(analyze(cell_net), limit_set=None)
                        == replace(analyze(center_net), limit_set=None))
                assert len(res.trace) == len(states)
                for (n, d), state in zip(res.trace, states):
                    assert d == (space.semidistance(centers(state), omega)
                                 if state else 0), (flow.kind, init, n)


def shared_target_table(rng, total):
    """A table flow whose rows hit 1-3 of the first eight cells, so many
    rows share targets and a hit count goes above 1."""
    return tuple(sum(1 << j for j in rng.sample(range(8), rng.randint(1, 3)))
                 for _ in range(total))


def delta_walk_sequence(rng, total):
    """Cell sets for one image step, in rounds: each round jumps to a set
    disjoint from the last (the empty set in one round), which forces a
    whole walk, then changes it a little for a few steps, which the step
    walks by deltas.  The rounds shrink nested sets, move a set by one
    cell, alternate two sets and grow from the empty set."""
    full = (1 << total) - 1
    cells, seq = 0, []

    def toggles(k):
        return sum(1 << rng.randrange(total) for _ in range(k))

    for family in ("shrinking", "moving", "alternating", "growing") * 2:
        cells = 0 if family == "growing" else \
            rng.getrandbits(total) & ~cells & full
        seq.append(cells)
        other = cells ^ toggles(rng.randint(1, 3))
        for _ in range(6):
            if family == "shrinking":
                cells &= ~toggles(rng.randint(1, 3))
            elif family == "moving":
                cells = (cells << 1 | cells >> (total - 1)) & full
            elif family == "alternating":
                cells, other = other, cells
            else:
                cells |= toggles(rng.randint(1, 4))
            seq.append(cells)
    return seq


class TestIncrementalStep:
    @pytest.mark.parametrize("grid, flow", [
        (CellGrid(1, 64), DiscreteSemiflow("logistic", (F(39, 10),))),
        (CellGrid(1, 64), DiscreteSemiflow("tent", (F(3, 2),))),
        (CellGrid(1, 64), DiscreteSemiflow("rotation", (F(1, 192),))),
        (CellGrid(2, 8), DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))),
        (CellGrid(1, 64), "table"),
    ], ids=["logistic", "tent", "rotation", "henon", "table"])
    @pytest.mark.parametrize("samples, dilate", [(1, False), (3, False),
                                                 (1, True), (3, True)])
    def test_every_step_equals_a_fresh_step(self, grid, flow, samples,
                                            dilate):
        kind = flow if flow == "table" else flow.kind
        rng = random.Random(f"{grid.total}:{kind}:{samples}:{dilate}")
        if flow == "table":
            flow = DiscreteSemiflow(
                "table", table=shared_target_table(rng, grid.total))
            if samples != 1 or dilate:  # a table takes neither
                with pytest.raises(PreconditionError, match="table"):
                    semiflow_cells._ImageStep(grid, flow, samples, dilate)
                return
        step = semiflow_cells._ImageStep(grid, flow, samples, dilate)
        paths, top_count = [], 0
        for cells in delta_walk_sequence(rng, grid.total):
            assert step(cells) == cell_image(grid, flow, cells,
                                             samples=samples, dilate=dilate)
            paths.append("whole" if step.counts is None else "delta")
            if step.counts:
                top_count = max(top_count, max(step.counts))
        # whole walks and delta walks take turns, more than once
        runs = "".join(p[0] for i, p in enumerate(paths)
                       if i == 0 or p != paths[i - 1])
        assert "wdwd" in runs, paths
        # a rotation sampled once per cell is one-to-one on cells
        assert (top_count > 1) == (kind != "rotation" or samples > 1)


def count_walked_cells(monkeypatch):
    """Count the cells that ``set_bits`` yields to the image step."""
    walked = [0]
    set_bits = semiflow_cells.set_bits

    def counting(cells):
        for i in set_bits(cells):
            walked[0] += 1
            yield i
    monkeypatch.setattr(semiflow_cells, "set_bits", counting)
    return walked


def random_half(seed, total):
    """The omega benchmark's initial set: cell 0 and a seeded random half."""
    rng = random.Random(f"omega:{seed}")
    return sum(1 << i for i in
               [0] + rng.sample(range(1, total), total // 2 - 1))


class TestWalkCount:
    def test_contracting_run_walks_at_most_half_its_states(self,
                                                          monkeypatch):
        walked = count_walked_cells(monkeypatch)
        g = CellGrid(1, 4096)
        res = omega_limit_cells(g, DiscreteSemiflow("logistic", (F(39, 10),)),
                                random_half(1, g.total))
        assert sum(res.sizes) == 18_631  # what a whole walk per step costs
        assert walked[0] <= sum(res.sizes) // 2

    @pytest.mark.parametrize("grid, flow, samples, dilate", [
        (CellGrid(2, 64), DiscreteSemiflow("henon", (F(7, 5), F(3, 10))), 1,
         False),
        (CellGrid(1, 1024), DiscreteSemiflow("logistic", (F(39, 10),)), 8,
         True),
        (CellGrid(1, 256), DiscreteSemiflow("rotation", (F(77, 768),)), 1,
         False),
        (CellGrid(1, 256), DiscreteSemiflow("rotation", (F(77, 768),)), 2,
         True),
        (CellGrid(1, 256), DiscreteSemiflow("tent", (F(3, 2),)), 1, False),
    ], ids=["henon", "logistic-dilated", "sampled-rotation",
            "sampled-rotation-dilated", "tent"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_run_walks_more_than_its_states(self, grid, flow, samples,
                                               dilate, seed, monkeypatch):
        walked = count_walked_cells(monkeypatch)
        res = omega_limit_cells(grid, flow, random_half(seed, grid.total),
                                samples=samples, dilate=dilate)
        assert 0 < walked[0] <= sum(res.sizes)


class TestGridSemidistance:
    def test_subset_gives_zero(self):
        g = CellGrid(1, 8)
        assert g.semidistance(0b0011, 0b0111) == 0

    def test_directed_distance(self):
        g = CellGrid(1, 8)
        # cells 0 and 4: centers 1/16 and 9/16
        assert g.semidistance(0b00001, 0b10000) == F(1, 2)
        assert g.semidistance(0b10001, 0b10000) == F(1, 2)

    def test_empty_conventions(self):
        g = CellGrid(1, 8)
        assert g.semidistance(0, 0b1) == 0
        assert g.semidistance(0b1, 0) == INFINITY

    @pytest.mark.parametrize("grid", [CellGrid(1, 8), CellGrid(2, 4)])
    def test_empty_to_empty_is_undefined(self, grid):
        with pytest.raises(UndefinedCaseError,
                           match=r"^d\(emptyset; emptyset\) is not defined$"):
            grid.semidistance(0, 0)

    def test_matches_pairwise_centers(self):
        rng = random.Random(22)
        for grid in GRIDS:
            for _ in range(40):
                a, b = random_cells(rng, grid), random_cells(rng, grid)
                for x, y in ((a, b), (b, a), (0, b), (a, 0)):
                    if not x and not y:
                        continue  # undefined; see the test above
                    assert (grid.semidistance(x, y)
                            == pairwise_semidistance(grid, x, y)), (grid.dim, x, y)

    def test_opposite_corners(self):
        for grid in GRIDS:
            far = grid.index((grid.cells_per_axis - 1,) * grid.dim)
            d = grid.semidistance(1 << far, 1)
            assert d == F(grid.cells_per_axis - 1, grid.cells_per_axis)
            assert d == pairwise_semidistance(grid, 1 << far, 1)

    def test_cells_outside_the_grid_rejected(self):
        g = CellGrid(1, 4)
        with pytest.raises(PreconditionError):
            g.semidistance(1 << 4, 1)


def shift_down_table(total):
    """Cell i -> cell i - 1, and cell 0 -> itself: every run ends on cell 0."""
    return tuple(1 << max(i - 1, 0) for i in range(total))


def cells_at_distance(grid, k, rng):
    """A cell at Chebyshev distance exactly k from cell 0, and, in 2-D, a
    second cell no farther from it."""
    if grid.dim == 1:
        return 1 << k
    return (1 << grid.index((k, rng.randrange(k + 1)))
            | 1 << grid.index((rng.randrange(k + 1), rng.randrange(k + 1))))


# With 32 states a window holds D_{31j} through D_{31(j+1)}: rows at both
# ends of the first two windows, and at k = 64.
WINDOW = semiflow_cells.DILATION_WINDOW
WINDOW_EDGES = tuple(sorted({0, 1, WINDOW - 2, WINDOW - 1, WINDOW, WINDOW + 1,
                             2 * WINDOW - 2, 2 * WINDOW - 1, 2 * WINDOW}))


class TestDilationWindows:
    """Rows whose least k lies past the first window of the dilation chain,
    against pairwise ``Fraction`` center distances."""

    @pytest.mark.parametrize("grid", [CellGrid(1, 256), CellGrid(2, 64)],
                             ids=["1d-256", "2d-64x64"])
    def test_rows_at_window_edges(self, grid):
        rng = random.Random(28 + grid.dim)
        n = grid.cells_per_axis
        ks = [k for k in WINDOW_EDGES if k < n] + [n - 1]
        rows = [cells_at_distance(grid, k, rng) for k in ks]
        # empty rows, rows spread over two windows, and a repeated row
        rows += [0, rows[2] | rows[5], 0, rows[-1] | rows[3], rows[4]]
        dist = semiflow_cells._dilation_distances(grid, rows, 1)
        assert dist[:len(ks)] == [F(k, n) for k in ks]
        for row, d in zip(rows, dist):
            assert d == pairwise_semidistance(grid, row, 1)
            if row:
                assert grid.semidistance(row, 1) == d
        # a base that is not one cell: the far corner and the middle
        base = 1 << grid.index((n - 1,) * grid.dim) | 1 << grid.index(
            (n // 2,) * grid.dim)
        dist = semiflow_cells._dilation_distances(grid, rows, base)
        for row, d in zip(rows, dist):
            assert d == pairwise_semidistance(grid, row, base)
        assert semiflow_cells._dilation_distances(grid, rows, 0) == [
            INFINITY if row else 0 for row in rows]

    def test_table_flow_onto_one_cell(self):
        grid = CellGrid(1, 256)
        flow = DiscreteSemiflow("table", table=shift_down_table(256))
        rng = random.Random(280)
        inits = [1 << 255, 1 << 64, 1 << 33 | 1 << 31, 1 << 32 | 1,
                 random_cells(rng, grid) | 1 << 200]
        for init in inits:
            res = omega_limit_cells(grid, flow, init)
            assert res.omega == 1 and res.period == 1
            state = init
            for n, d in res.trace:
                assert d == pairwise_semidistance(grid, state, 1), (init, n)
                state = cell_image(grid, flow, state)
        # the first run's rows read 255/256, 254/256, ..., 0
        assert omega_limit_cells(grid, flow, 1 << 255).trace == tuple(
            (n, F(255 - n, 256)) for n in range(256))
        # a table onto no cell: an empty omega, every nonempty row at inf
        dying = DiscreteSemiflow("table", table=(0,) * 256)
        res = omega_limit_cells(grid, dying, 1 << 100 | 1 << 7)
        assert res.omega == 0 and res.trace == ((0, INFINITY), (1, 0))

    @pytest.mark.parametrize("samples, dilate", [(1, False), (2, False),
                                                 (1, True)])
    def test_two_dimensional_runs(self, samples, dilate):
        grid = CellGrid(2, 64)
        flow = DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))
        rng = random.Random(281 + samples + 10 * dilate)
        last = grid.cells_per_axis - 1
        inits = [1 << grid.index((last, last)),
                 1 << grid.index((last, 0)) | 1 << grid.index((0, last))]
        if samples == 1 and not dilate:  # small omegas keep pairs cheap
            inits += [sum(1 << rng.randrange(grid.total) for _ in range(6))
                      for _ in range(3)]
        farthest = 0
        for init in inits:
            res = omega_limit_cells(grid, flow, init, samples=samples,
                                    dilate=dilate)
            state = init
            for n, d in res.trace:
                assert d == pairwise_semidistance(grid, state, res.omega), \
                    (init, n)
                farthest = max(farthest, d)
                state = cell_image(grid, flow, state, samples=samples,
                                   dilate=dilate)
        assert farthest * grid.cells_per_axis > 32  # past the first window


def count_dilations(monkeypatch):
    """Count the calls of ``CellGrid.dilate``."""
    calls = [0]
    dilate = CellGrid.dilate

    def counting(grid, cells):
        calls[0] += 1
        return dilate(grid, cells)
    monkeypatch.setattr(CellGrid, "dilate", counting)
    return calls


class TestDilationCount:
    """The chain is dilated to the farthest row and no further."""

    def test_omega_run_dilates_max_k_times(self, monkeypatch):
        calls = count_dilations(monkeypatch)
        henon = DiscreteSemiflow("henon", (F(7, 5), F(3, 10)))
        table = DiscreteSemiflow("table", table=shift_down_table(256))
        g256, g64 = CellGrid(1, 256), CellGrid(2, 64)
        runs = [(g256, table, 1 << k) for k in (31, 32, 33, 64, 255)]
        runs += [(CellGrid(1, 4096),
                  DiscreteSemiflow("logistic", (F(39, 10),)),
                  random_half(1, 4096)),
                 (g64, henon, 1 << g64.index((63, 63))),
                 (g64, henon, random_half(2, g64.total)),
                 (g256, DiscreteSemiflow("table", table=(0,) * 256),
                  random_half(3, 256))]
        counted = []
        for grid, flow, init in runs:
            calls[0] = 0
            res = omega_limit_cells(grid, flow, init)
            finite = [d for _, d in res.trace if d != INFINITY]
            k = max(finite) * grid.cells_per_axis if res.omega else 0
            assert calls[0] == k, (flow.kind, init)
            counted.append(calls[0])
        assert counted[:5] == [31, 32, 33, 64, 255]
        assert counted[5] == 411  # the omega benchmark's seed-1 logistic run
        assert counted[-1] == 0  # an empty omega is never dilated

    @pytest.mark.parametrize("grid", [CellGrid(1, 256), CellGrid(2, 64)],
                             ids=["1d-256", "2d-64x64"])
    def test_semidistance_dilates_d_times_n(self, grid, monkeypatch):
        rng = random.Random(282 + grid.dim)
        n = grid.cells_per_axis
        pairs = [(cells_at_distance(grid, k, rng), 1)
                 for k in WINDOW_EDGES if k < n]
        pairs += [(random_cells(rng, grid), random_cells(rng, grid) or 1)
                  for _ in range(20)]
        pairs += [(0, 1), (1, 0)]
        calls = count_dilations(monkeypatch)
        for a, b in pairs:
            calls[0] = 0
            d = grid.semidistance(a, b)
            assert calls[0] == (0 if d == INFINITY else d * n), (a, b)
