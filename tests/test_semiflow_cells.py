import random
from fractions import Fraction as F
from itertools import product

import pytest

from limitset_lab.errors import (MalformedInputError, PreconditionError,
                                 UndefinedCaseError)
from limitset_lab import semiflow_cells
from limitset_lab.pseudometric_core import RationalPointSpace
from limitset_lab.rationals import INFINITY
from limitset_lab.semiflow_cells import (CellGrid, DiscreteSemiflow,
                                         attraction_trace_check, cell_image,
                                         cellset_semidistance,
                                         omega_limit_cells)
from limitset_lab.subset_nets import Periodic, SubsetNet, limit_set


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
    """k^dim sample points of a cell, at sub-cell midpoints."""
    n = grid.cells_per_axis
    base = grid.coords(index)
    offs = [(j + 0.5) / k for j in range(k)]
    if grid.dim == 1:
        return [((base[0] + o) / n,) for o in offs]
    return [((base[0] + ox) / n, (base[1] + oy) / n)
            for ox in offs for oy in offs]


def reference_map_point(flow, point):
    """The builtin point maps, written out once more on float parameters."""
    params = tuple(float(p) for p in flow.params)
    if flow.kind == "logistic":
        (r,) = params
        x = point[0]
        return (r * x * (1.0 - x),)
    if flow.kind == "tent":
        (mu,) = params
        x = point[0]
        return (mu * (x if x < 0.5 else 1.0 - x),)
    if flow.kind == "rotation":
        (theta,) = params
        return ((point[0] + theta) % 1.0,)
    if flow.kind == "henon":
        a, b = params
        x = 3.0 * point[0] - 1.5
        y = 0.8 * point[1] - 0.4
        xn = 1.0 - a * x * x + y
        yn = b * x
        u = min(1.0, max(0.0, (xn + 1.5) / 3.0))
        v = min(1.0, max(0.0, (yn + 0.4) / 0.8))
        return (u, v)
    raise AssertionError(f"no point map for {flow.kind}")


def reference_hits(grid, flow, index, k):
    """Cells hit from one cell, one sample at a time through cell_of_point."""
    return sum(1 << c for c in {
        grid.cell_of_point(reference_map_point(flow, point))
        for point in reference_samples(grid, index, k)})


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


class TestCellGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(MalformedInputError):
            CellGrid(1, 3)
        with pytest.raises(MalformedInputError):
            CellGrid(1, 8192)
        with pytest.raises(MalformedInputError):
            CellGrid(3, 8)

    def test_floor_rounding_and_closed_right_edge(self):
        g = CellGrid(1, 4)
        assert g.cell_of_point((0.0,)) == 0
        assert g.cell_of_point((0.25,)) == 1
        assert g.cell_of_point((0.999,)) == 3
        assert g.cell_of_point((1.0,)) == 3  # last cell closed at 1

    def test_centers_are_exact(self):
        g = CellGrid(1, 4)
        assert g.center(2) == (F(5, 8),)
        g2 = CellGrid(2, 2)
        assert g2.center(3) == (F(3, 4), F(3, 4))

    def test_two_dimensional_indexing(self):
        g = CellGrid(2, 4)
        for i in range(16):
            assert g.index(g.coords(i)) == i


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
            lo, hi = i / 4, (i + 1) / 4
            expect = {g.cell_of_point(((x + 0.25) % 1.0,))
                      for x in (lo, (lo + hi) / 2, hi - 1e-9)}
            assert set(cells_of(cell_image(g, flow, 1 << i))) == expect

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
                assert (cell_image(grid, flow, 1 << i, samples=k)
                        == reference_hits(grid, flow, i, k)), (flow.kind, i)

    @pytest.mark.parametrize("samples", [0, -1, 65, 10**9])
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


class TestOmegaLimitCells:
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
            runs.append((CellGrid(1, n), DiscreteSemiflow("table", table=table)))
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
        # the iterate sequence, read as a periodic subset net of exact cell
        # centers, has the same limit set as the reported omega
        rng = random.Random(14)
        g = CellGrid(1, 32)
        flows = [DiscreteSemiflow("logistic", (2,)),
                 DiscreteSemiflow("tent", (F(3, 2),)),
                 DiscreteSemiflow("rotation", (F(1, 4),)),
                 DiscreteSemiflow("tent", (2,))]
        space = RationalPointSpace(1)
        for flow in flows:
            for _ in range(5):
                init = rng.randrange(1, 1 << 32)
                res = omega_limit_cells(g, flow, init)
                states = [init]
                for _ in range(res.preperiod + res.period):
                    states.append(cell_image(g, flow, states[-1]))
                cycle = states[res.preperiod:res.preperiod + res.period]
                centers = [frozenset(g.center(i) for i in cells_of(s))
                           for s in cycle]
                net = SubsetNet.over_znn(space, [], Periodic(tuple(centers)))
                omega_centers = frozenset(g.center(i)
                                          for i in cells_of(res.omega))
                assert limit_set(net) == omega_centers


class TestCellsetSemidistance:
    def test_subset_gives_zero(self):
        g = CellGrid(1, 8)
        assert cellset_semidistance(g, 0b0011, 0b0111) == 0

    def test_directed_distance(self):
        g = CellGrid(1, 8)
        # cells 0 and 4: centers 1/16 and 9/16
        assert cellset_semidistance(g, 0b00001, 0b10000) == F(1, 2)
        assert cellset_semidistance(g, 0b10001, 0b10000) == F(1, 2)

    def test_empty_conventions(self):
        g = CellGrid(1, 8)
        assert cellset_semidistance(g, 0, 0b1) == 0
        assert cellset_semidistance(g, 0b1, 0) == INFINITY

    @pytest.mark.parametrize("grid", [CellGrid(1, 8), CellGrid(2, 4)])
    def test_empty_to_empty_is_undefined(self, grid):
        with pytest.raises(UndefinedCaseError,
                           match=r"^d\(emptyset; emptyset\) is not defined$"):
            cellset_semidistance(grid, 0, 0)

    def test_matches_pairwise_centers(self):
        rng = random.Random(22)
        for grid in GRIDS:
            for _ in range(40):
                a, b = random_cells(rng, grid), random_cells(rng, grid)
                for x, y in ((a, b), (b, a), (0, b), (a, 0)):
                    if not x and not y:
                        continue  # undefined; see the test above
                    assert (cellset_semidistance(grid, x, y)
                            == pairwise_semidistance(grid, x, y)), (grid.dim, x, y)

    def test_opposite_corners(self):
        for grid in GRIDS:
            far = grid.index((grid.cells_per_axis - 1,) * grid.dim)
            d = cellset_semidistance(grid, 1 << far, 1)
            assert d == F(grid.cells_per_axis - 1, grid.cells_per_axis)
            assert d == pairwise_semidistance(grid, 1 << far, 1)

    def test_cells_outside_the_grid_rejected(self):
        g = CellGrid(1, 4)
        with pytest.raises(PreconditionError):
            cellset_semidistance(g, 1 << 4, 1)
