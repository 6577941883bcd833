"""Discrete-time semiflows on the unit box, discretized on a cell grid.

The box [0,1]^dim is cut into ``cells_per_axis`` half-open cells per axis
(the last cell per axis is closed at 1).  A flow acts on cell sets by
mapping sample points of each cell and collecting the cells they land in;
``omega_limit_cells`` iterates that image map until the (finite) state
space repeats and reports the cycle union together with an attraction
trace of semi-distances between cell-center sets.

Sampling defaults to the single cell midpoint without dilation: that is
the variant under which the image iteration contracts transient blocks
and reproduces the expected attractors at the tested resolutions.  Denser
sampling plus one-cell dilation (``samples=8, dilate=True``) gives the
outer-cover behaviour instead; both are non-rigorous for steep maps.
Cell-set operations are exact bitmask work; floating point only enters
through map evaluation, with samples rounded to cells via floor.

Cell sets are never walked bit by bit on a growing int, and every pass
over one is linear in the grid size:

* ``CellGrid.dilate`` is a handful of whole-bitset shifts, with the first
  and last column masked out of the sideways shifts in 2-D;
* semi-distances count dilations: cell centers sit on a 1/(2n) lattice,
  so the max-norm distance of two centers is their Chebyshev cell
  distance over n, and d(a; b) = k/n for the least k with a inside the
  k-fold dilation of b (king-move paths stay in the box).  All rows of
  the attraction trace read one chain D_0 = omega, D_1, ...: row n is k/n
  for the least k with I_n inside D_k.  An empty omega is never dilated;
  every nonempty I_n is at distance inf from it.  A semi-distance is an
  exact ``Fraction`` k/n, or ``INFINITY`` (``math.inf``) from an empty set;
* an image step scans the set bits once and writes the image into one
  bytearray.  Each run keeps one transition table, cell -> the cells its
  samples hit, filled on a cell's first visit, so a run samples each
  visited cell once and a short run on a small grid compiles nothing it
  does not visit.  A flow picks its point map once, when it is built,
  and a run computes its sub-cell sample offsets once.  ``cell_image``
  is one step with a fresh table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor
from typing import Dict, List, Optional, Tuple

from .errors import (MalformedInputError, PreconditionError,
                     UndefinedCaseError, UnsupportedRuleError)
from .rationals import INFINITY

MAX_CELLS_PER_AXIS = 4096
MAX_SAMPLES = 64  # sub-cell samples per axis: samples^dim map calls a cell
MAX_OMEGA_STEPS = 10_000


class CellGrid:
    def __init__(self, dim: int, cells_per_axis: int):
        if dim not in (1, 2):
            raise MalformedInputError("grid dimension must be 1 or 2")
        n = cells_per_axis
        if n < 1 or n & (n - 1) or n > MAX_CELLS_PER_AXIS:
            raise MalformedInputError(
                f"cells_per_axis must be a power of two <= {MAX_CELLS_PER_AXIS}")
        self.dim = dim
        self.cells_per_axis = n
        self.total = n ** dim

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.total) - 1

    @cached_property
    def _sideways_masks(self) -> Tuple[int, int]:
        """Cells that may shift one column left and one column right."""
        n = self.cells_per_axis
        first, rows = 1, 1  # first column, doubled one block of rows at a time
        while rows < n:
            first |= first << (n * rows)
            rows *= 2
        return self.full_mask & ~first, self.full_mask & ~(first << (n - 1))

    def index(self, coords: Tuple[int, ...]) -> int:
        if self.dim == 1:
            return coords[0]
        return coords[0] + self.cells_per_axis * coords[1]

    def coords(self, index: int) -> Tuple[int, ...]:
        if self.dim == 1:
            return (index,)
        return (index % self.cells_per_axis, index // self.cells_per_axis)

    def cell_of_point(self, point) -> int:
        """Floor-rounding of a point in [0,1]^dim to its cell index."""
        n = self.cells_per_axis
        coords = []
        for x in point:
            i = floor(x * n)
            coords.append(min(n - 1, max(0, i)))
        return self.index(tuple(coords))

    def center(self, index: int) -> Tuple[Fraction, ...]:
        n = self.cells_per_axis
        return tuple(Fraction(2 * c + 1, 2 * n) for c in self.coords(index))

    def dilate(self, cells: int) -> int:
        """One-cell dilation along every axis (the full neighbor box)."""
        if self.dim == 1:
            return (cells | cells << 1 | cells >> 1) & self.full_mask
        to_left, to_right = self._sideways_masks
        row = cells | (cells & to_left) >> 1 | (cells & to_right) << 1
        n = self.cells_per_axis
        return (row | row << n | row >> n) & self.full_mask


def _henon(a, b):
    def henon(x, y):
        # classic map on [-1.5, 1.5] x [-0.4, 0.4], rescaled and clamped
        x = 3.0 * x - 1.5
        y = 0.8 * y - 0.4
        xn = 1.0 - a * x * x + y
        yn = b * x
        return (min(1.0, max(0.0, (xn + 1.5) / 3.0)),
                min(1.0, max(0.0, (yn + 0.4) / 0.8)))
    return henon


class DiscreteSemiflow:
    """A discrete-time semiflow: a builtin interval/plane map or a cell table.

    ``map_point`` is the builtin's point map on float parameters, picked
    once here: ``x -> x'`` on the interval, ``(x, y) -> (x', y')`` on the
    plane.  Table flows have none.
    """

    # map -> (dimension, parameter count, point map of the float parameters)
    BUILTINS = {
        "logistic": (1, 1, lambda r: lambda x: r * x * (1.0 - x)),
        "tent": (1, 1, lambda mu: lambda x: mu * (x if x < 0.5 else 1.0 - x)),
        "rotation": (1, 1, lambda theta: lambda x: (x + theta) % 1.0),
        "henon": (2, 2, _henon)}

    def __init__(self, kind: str, params: tuple = (),
                 table: Optional[tuple] = None):
        self.kind = kind
        self.params = tuple(Fraction(p) for p in params)
        self.table = table
        self.map_point = None
        if kind == "table":
            if table is None:
                raise MalformedInputError("table flow needs a table")
            self.dim = 1
        elif kind not in self.BUILTINS:
            raise UnsupportedRuleError(f"unknown map: {kind}")
        else:
            self.dim, want, point_map = self.BUILTINS[kind]
            self._validate_params(want)
            self.map_point = point_map(*(float(p) for p in self.params))

    def _validate_params(self, want: int):
        if len(self.params) != want:
            raise MalformedInputError(f"{self.kind} takes {want} parameter(s), "
                                      f"got {len(self.params)}")
        if self.kind == "logistic":
            (r,) = self.params
            if not 0 <= r <= 4:
                raise MalformedInputError("logistic parameter must be in [0, 4]")
        elif self.kind == "tent":
            (mu,) = self.params
            if not 0 <= mu <= 2:
                raise MalformedInputError("tent parameter must be in [0, 2]")

    def exact_rotation_shift(self, grid: CellGrid) -> Optional[int]:
        """Cell shift when the rotation angle is an exact multiple of a cell."""
        if self.kind != "rotation":
            return None
        step = self.params[0] * grid.cells_per_axis
        if step.denominator != 1:
            return None
        return int(step) % grid.cells_per_axis


def _sampler(grid: CellGrid, f, k: int):
    """cell -> the cells hit by f at its k^dim sub-cell midpoints.

    Each image point is floored to its cell as ``CellGrid.cell_of_point``
    does, with the same float operations.
    """
    n, top = grid.cells_per_axis, grid.cells_per_axis - 1
    offs = [(j + 0.5) / k for j in range(k)]
    if grid.dim == 1:
        return lambda i: tuple({min(top, max(0, floor(f((i + o) / n) * n)))
                                for o in offs})
    return lambda i: tuple({
        min(top, max(0, floor(u * n))) + n * min(top, max(0, floor(v * n)))
        for u, v in (f((i % n + ox) / n, (i // n + oy) / n)
                     for ox in offs for oy in offs)})


class _ImageStep:
    """The cell image map of one run.

    ``hits`` maps a cell to the cells its samples (or its table row) hit,
    filled on the cell's first visit by ``hits_of``, picked once per run.
    """

    def __init__(self, grid: CellGrid, flow: DiscreteSemiflow, samples: int,
                 dilate: bool):
        if not 1 <= samples <= MAX_SAMPLES:
            raise PreconditionError(
                f"samples must be between 1 and {MAX_SAMPLES}")
        table = flow.table
        if flow.kind == "table":  # a table has no dimension, only a size
            if len(table) != grid.total:
                raise PreconditionError("table size must match the grid")
            # a negative row shifts to -1, so it is refused too
            if any(row >> grid.total for row in table):
                raise PreconditionError("table maps a cell outside the grid")
        elif flow.dim != grid.dim:
            raise PreconditionError("flow and grid dimension mismatch")
        self.shift = flow.exact_rotation_shift(grid)
        self.grid = grid
        self.dilate = dilate and flow.kind != "table"
        self.hits: Dict[int, Tuple[int, ...]] = {}
        self.hits_of = (lambda i: tuple(set_bits(table[i]))) \
            if flow.kind == "table" else _sampler(grid, flow.map_point, samples)

    def __call__(self, cells: int) -> int:
        grid = self.grid
        if self.shift is not None:
            n, shift = grid.cells_per_axis, self.shift
            return ((cells << shift) | (cells >> (n - shift))) & grid.full_mask \
                if shift else cells
        hits, hits_of = self.hits, self.hits_of
        out = bytearray((grid.total + 7) >> 3)
        for i in set_bits(cells):
            hit = hits.get(i)
            if hit is None:
                hit = hits[i] = hits_of(i)
            for j in hit:
                out[j >> 3] |= 1 << (j & 7)
        image = int.from_bytes(out, "little")
        return grid.dilate(image) if self.dilate else image


def set_bits(cells: int):
    """Indices of the set bits of ``cells``, ascending, in one linear scan."""
    bits = bin(cells)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def cell_image(grid: CellGrid, flow: DiscreteSemiflow, cells: int,
               samples: int = 1, dilate: bool = False) -> int:
    """Cells hit by mapping sample points of every input cell.

    One step of the image map ``omega_limit_cells`` iterates.  Table flows
    read their table directly.  Exact rotations (angle times
    cells_per_axis an integer) reduce to a cyclic bitset shift and skip
    both sampling and dilation.
    """
    if cells & ~grid.full_mask:
        raise PreconditionError("cell set outside the grid")
    return _ImageStep(grid, flow, samples, dilate)(cells)


@dataclass(frozen=True)
class OmegaResult:
    omega: int
    preperiod: int
    period: int
    trace: tuple  # (n, semi-distance of I_n to omega) pairs
    sizes: tuple  # cell count of I_n, for each n in the trace


def omega_limit_cells(grid: CellGrid, flow: DiscreteSemiflow, e: int,
                      samples: int = 1, dilate: bool = False) -> OmegaResult:
    """Iterate the cell image from ``e`` until the state repeats.

    The finite state space forces eventual periodicity; omega is the union
    of the cycle's cell sets and the trace records d(I_n; omega) for every
    step up to preperiod + period.
    """
    if e == 0:
        raise PreconditionError("initial cell set must be nonempty")
    if e & ~grid.full_mask:
        raise PreconditionError("cell set outside the grid")
    step = _ImageStep(grid, flow, samples, dilate)
    states: List[int] = [e]
    seen = {e: 0}
    current = e
    for _ in range(MAX_OMEGA_STEPS):
        current = step(current)
        if current in seen:
            start = seen[current]
            break
        seen[current] = len(states)
        states.append(current)
    else:
        raise PreconditionError("no cycle within the step limit")
    preperiod = start
    period = len(states) - start
    omega = 0
    for state in states[start:]:
        omega |= state
    trace = tuple(enumerate(_dilation_distances(grid, states, omega)))
    return OmegaResult(omega=omega, preperiod=preperiod, period=period,
                       trace=trace,
                       sizes=tuple(state.bit_count() for state in states))


def _dilation_distances(grid: CellGrid, cell_sets: List[int],
                       base: int) -> List[Fraction]:
    """d(a; base) for every cell set a, read off one dilation chain of base.

    D_0 = base, and D_{k+1} is the dilation of D_k; d(a; base) = k/n for
    the least k with a inside D_k.  An empty a is at distance 0 and a
    nonempty a at distance inf from an empty base, which is never dilated.
    This is the omega trace's convention, so an empty a is at distance 0
    even from an empty base; ``cellset_semidistance`` refuses that pair.
    The sets must lie in the grid, where the chain reaches every cell.
    """
    dist = [INFINITY if a else Fraction(0) for a in cell_sets]
    pending = [i for i, a in enumerate(cell_sets) if a] if base else []
    k = 0
    while pending:
        # a nonnegative mask: & with ~base goes through two's complement
        outside, left = grid.full_mask ^ base, []
        for i in pending:
            if cell_sets[i] & outside:
                left.append(i)
            else:
                dist[i] = Fraction(k, grid.cells_per_axis)
        if left:
            base = grid.dilate(base)
            k += 1
        pending = left
    return dist


def cellset_semidistance(grid: CellGrid, a: int, b: int) -> Fraction:
    """Max-norm semi-distance between the center sets of two cell sets.

    Equal to k/n for the least k whose k-fold dilation of ``b`` covers
    ``a``: centers sit on a 1/(2n) lattice, so two centers lie at their
    Chebyshev cell distance over n.  d(emptyset; emptyset) is not
    defined, as for ``semidistance``.
    """
    if (a | b) & ~grid.full_mask:
        raise PreconditionError("cell set outside the grid")
    if not a and not b:
        raise UndefinedCaseError("d(emptyset; emptyset) is not defined")
    return _dilation_distances(grid, [a], b)[0]


def attraction_trace_check(result: OmegaResult) -> bool:
    """Trace hits zero at the preperiod and stays there through the cycle."""
    return all(d == 0 for n, d in result.trace if n >= result.preperiod)
