"""Discrete-time semiflows on the unit box, discretized on a cell grid.

The box [0,1]^dim is cut into ``cells_per_axis`` half-open cells per axis
(the last cell per axis is closed at 1).  A flow acts on cell sets by
mapping sample points of each cell and collecting the cells they land in;
``omega_limit_cells`` iterates that image map until the (finite) state
space repeats.  The run is a periodic ``SubsetNet`` over the grid, a
ground whose sets stand for their cell centers: omega is its
``limit_set``, and a trace of semi-distances between center sets shows
omega attracting the run.

Sampling defaults to the single cell midpoint without dilation: that is
the variant under which the image iteration contracts transient blocks
and reproduces the expected attractors at the tested resolutions.  Denser
sampling plus one-cell dilation (``samples=8, dilate=True``) gives the
outer-cover behaviour instead; both are non-rigorous for steep maps.
No floating point enters: cell sets are bitmasks, and a sample's cell
is the exact floor of its image, computed in integers from the
parameters' numerators and denominators (``DiscreteSemiflow``).
Henon's cell map tables the terms of its floor that depend on one axis
alone, once per run.  Logistic and tent are monotone on every cell of a
grid of two cells or more, and their slope is at most their parameter:
with k >= parameter samples per cell, consecutive samples land at most
one cell apart, so a cell's hits are the run of cells between its first
and last samples', and only those two are mapped.  The hits are the same
exact sets either way.  Exact rotations shift the set, then dilate it
under ``dilate``; table flows refuse both ``samples`` and ``dilate``.

Cell sets are never walked bit by bit on a growing int, and every pass
over one is linear in the grid size (``finite_topology.set_bits`` reads a
dense set's cells a byte at a time, a sparse set's in one scan of its
binary string, and a set below 256 from a table):

* ``CellGrid.dilate`` is a handful of whole-bitset shifts, with the first
  and last column masked out of the sideways shifts in 2-D;
* semi-distances count dilations: cell centers sit on a 1/(2n) lattice,
  so the max-norm distance of two centers is their Chebyshev cell
  distance over n, and d(a; b) = k/n for the least k with a inside the
  k-fold dilation of b (king-move paths stay in the box).  All rows of
  the attraction trace read one chain D_0 = omega, D_1, ...: row n is k/n
  for the least k with I_n inside D_k.  A row inside omega (every row
  from the preperiod on) reads 0 after one test.  The chain is held in
  windows of at most ``DILATION_WINDOW`` states: a pending row is tested
  once per window, against its last state, and a row that state covers
  is bisected inside the window; a window stops growing once it covers
  every pending row, so omega is dilated exactly max_n k times.  An empty
  omega is never dilated; every nonempty I_n is at distance inf from it,
  and an empty I_n at 0.  A semi-distance is an exact ``Fraction`` k/n, or
  ``INFINITY`` (``math.inf``) from an empty set;
* an image step walks the cells that changed since the last step: it
  keeps, for every cell, how many cells of the last set hit it, and flips
  an image bit when that count crosses zero.  When the set moved (at least
  two thirds as many cells changed as it holds), the step scans the whole
  set once instead, without counting.  Either way the flips or hits go
  into one bytearray.  Each run keeps one transition table, cell -> the
  cells its samples hit, filled on a cell's first visit, so a run
  samples each visited cell once and a short run on a small grid
  compiles nothing it does not visit.  The table and the counts are
  lists indexed by cell, so a run holds one or two pointer slots per
  cell of the grid, visited or not.  A run builds its flow's integer
  cell map once, for its grid and sample count; one sample per cell (the
  default) hits one cell, so no set of hits is built.
  ``cell_image`` is one step with a fresh table, so it scans the whole
  set.

The CLI parses ``--init cells:K,...`` into one bytearray as well, in time
linear in the grid size.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from .errors import (MalformedInputError, PreconditionError,
                     UnsupportedRuleError, excerpt)
from .finite_topology import BitmaskGround, set_bits
from .rationals import INFINITY, semidistance_with
from .subset_nets import Periodic, SubsetNet, limit_set

MAX_CELLS_PER_AXIS = 4096
MAX_SAMPLES = 64  # sub-cell samples per axis: samples^dim map calls a cell
MAX_OMEGA_STEPS = 10_000
# Chain states held at once by ``_dilation_distances``.  It bounds the
# grid-sized ints in memory (64 MB on a 4096 x 4096 grid) and a row's
# bisection to about log2(32) = 5 subset tests, on top of one test per
# window the row waited through.
DILATION_WINDOW = 32


class CellGrid(BitmaskGround):
    """A ground whose point sets are cell sets, read as their cell centers."""

    def __init__(self, dim: int, cells_per_axis: int):
        if type(dim) is not int or dim not in (1, 2):
            raise MalformedInputError("grid dimension must be 1 or 2")
        n = cells_per_axis
        if type(n) is not int or n < 1 or n & (n - 1) or n > MAX_CELLS_PER_AXIS:
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

    def check_set(self, cells: int) -> int:
        """Refuse anything but an ``int`` mask of cells of the grid; a
        ``bool`` is no cell set."""
        if type(cells) is not int:
            raise PreconditionError(
                f"cell set {excerpt(cells)} is not a bitmask")
        if cells & ~self.full_mask:
            raise PreconditionError("cell set outside the grid")
        return cells

    normalize = check_set

    def closure(self, cells: int) -> int:
        return cells  # a finite set of centers is closed under the max-norm

    in_every_neighborhood = BitmaskGround.subset  # distance 0 is inclusion

    def semidistance(self, a: int, b: int) -> Fraction:
        """Max-norm d(a; b) between the center sets of two cell sets: k/n
        for the least k whose k-fold dilation of ``b`` covers ``a``, as the
        module docstring derives."""
        return semidistance_with(
            self.check_set(a), self.check_set(b),
            lambda a, b: _dilation_distances(self, [a], b)[0])

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


def _logistic(n: int, k: int, r: Fraction):
    p, q, d = r.numerator, r.denominator, 2 * n * k
    den = 2 * k * q * d
    return lambda m: p * m * (d - m) // den


def _tent(n: int, k: int, mu: Fraction):
    p, den, d = mu.numerator, 2 * k * mu.denominator, 2 * n * k
    return lambda m: p * (m if 2 * m < d else d - m) // den


def _rotation(n: int, k: int, theta: Fraction):
    q, d = theta.denominator, 2 * n * k
    shift, period, den = theta.numerator * d, q * d, 2 * k * q
    return lambda m: (m * q + shift) % period // den


def _henon(n: int, k: int, a: Fraction, b: Fraction):
    """The classic map on [-3/2, 3/2] x [-2/5, 2/5], at x = X/(2D) and
    y = Y/(5D) with X = 6 m1 - 3D and Y = 4 m2 - 2D, its image rescaled to
    the box: u = (x' + 3/2)/3 and v = (y' + 2/5) 5/4, each floored over
    the grid and clamped into it.

    The numerator of u is u0 - ux X^2 + uy Y, and v depends on X alone, so
    the terms are tabled once per run over the nk odd m of each axis
    (index m >> 1): ``col_u`` and ``col_v``, v's clamped row offset, by
    m1, and ``row_u`` by m2.  A cell is then one sum, one floor division
    and one clamp."""
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    d, top = 2 * n * k, n - 1
    u0, ux, uy, uden = 50 * qa * d * d, 5 * pa, 4 * qa * d, 120 * k * qa * d
    v0, vx, vden = 4 * qb * d, 5 * pb, 16 * k * qb
    xs = range(6 - 3 * d, 3 * d, 12)  # X = 6 m1 - 3D, m1 = 1, 3, ...
    col_u = [u0 - ux * x * x for x in xs]
    col_v = [n * (v if 0 <= v <= top else 0 if v < 0 else top)
             for v in ((vx * x + v0) // vden for x in xs)]
    row_u = [uy * y for y in range(4 - 2 * d, 2 * d, 8)]  # Y = 4 m2 - 2D

    def cell(m1, m2):
        j = m1 >> 1
        u = (col_u[j] + row_u[m2 >> 1]) // uden
        return (u if 0 <= u <= top else 0 if u < 0 else top) + col_v[j]
    return cell


class DiscreteSemiflow:
    """A discrete-time semiflow: a builtin interval/plane map or a cell table.

    A builtin has an integer ``cell_map``: ``cell_map(n, k, *params)``
    sends each sample of a grid of n cells per axis, k samples per cell
    and axis, to the cell its image lies in, exactly.  A sample sits at
    m/D on each axis, with D = 2nk and m odd, and a parameter p/q enters
    as the integers p and q, so floor(n f(m/D)) is one floor division of
    integer products (n/D = 1/(2k)).  On the interval the result reaches
    n only at an image of 1, in the last cell, which is closed; henon
    clamps its image into the box and returns the grid index of its
    cell.  Table flows have none.

    Each builtin's facts are one row of ``BUILTINS``: its dimension, its
    cell map, the inclusive range of each parameter (``None`` where any
    value goes; the row's length is the parameter count) and whether its
    parameter bounds its slope.  The constructor refuses a wrong count
    before any value out of range, and a table flow given parameters or a
    builtin given a table, so no argument is kept and then ignored.

    ``slope`` bounds |f'| on [0, 1] for an interval map that is monotone
    on [0, 1/2] and on [1/2, 1] (logistic and tent: their parameter), so
    ``_sampler`` may read a cell's hits off its two end samples; it is
    ``None`` for rotation, which wraps, for henon and for tables.
    """

    # map -> (dimension, integer cell map, each parameter's range or None,
    # whether the parameter bounds the slope: sup |f'| on [0, 1] of
    # logistic r x(1 - x) and tent mu min(x, 1 - x) is their parameter)
    BUILTINS = {"logistic": (1, _logistic, ((0, 4),), True),
                "tent": (1, _tent, ((0, 2),), True),
                "rotation": (1, _rotation, (None,), False),
                "henon": (2, _henon, (None, None), False)}

    def __init__(self, kind: str, params: tuple = (),
                 table: Optional[tuple] = None):
        self.kind = kind
        self.params = tuple(Fraction(p) for p in params)
        self.table = table
        self.cell_map = self.slope = None
        if kind == "table":
            if table is None:
                raise MalformedInputError("table flow needs a table")
            if self.params:
                raise MalformedInputError("table flow takes no parameters")
            self.dim = 1
            return
        if kind not in self.BUILTINS:
            raise UnsupportedRuleError(f"unknown map: {kind}")
        if table is not None:
            raise MalformedInputError(f"{kind} takes no table")
        self.dim, self.cell_map, ranges, slope_is_param = self.BUILTINS[kind]
        if len(self.params) != len(ranges):
            raise MalformedInputError(f"{kind} takes {len(ranges)} "
                                      f"parameter(s), got {len(self.params)}")
        for p, bounds in zip(self.params, ranges):
            if bounds and not bounds[0] <= p <= bounds[1]:
                raise MalformedInputError(
                    f"{kind} parameter must be in [{bounds[0]}, {bounds[1]}]")
        if slope_is_param:
            self.slope = self.params[0]

    def exact_rotation_shift(self, grid: CellGrid) -> Optional[int]:
        """Cell shift when the rotation angle is an exact multiple of a cell."""
        if self.kind != "rotation":
            return None
        step = self.params[0] * grid.cells_per_axis
        if step.denominator != 1:
            return None
        return int(step) % grid.cells_per_axis


def _sampler(grid: CellGrid, flow: DiscreteSemiflow, k: int):
    """cell -> the cells hit by the flow at its k^dim sub-cell midpoints.

    Sub-cell j of cell i sits at m/D on its axis, m = 2(ik + j) + 1, and
    the flow's cell map floors its image exactly.  On the interval the
    last cell is closed at 1, so a sample mapped to 1 is clamped into it.
    One sample (``k == 1``) hits one cell, so no set is built.

    An interval map with a ``slope`` bound of at most k, on two cells or
    more, hits a run of cells, read off the first and last samples.  Its
    turning point 1/2 is a cell boundary, so it is monotone on each cell;
    samples 1/(nk) apart move n f by at most slope/k <= 1, so consecutive
    samples' floors differ by at most 1 and fill the run between the two
    ends.  The clamp into the last cell is monotone, so it keeps the run.
    Every other case floors all k samples.
    """
    n, top = grid.cells_per_axis, grid.cells_per_axis - 1
    cell = flow.cell_map(n, k, *flow.params)
    if k == 1:
        if grid.dim == 1:
            def hit(i):
                c = cell(2 * i + 1)
                return (c if c < n else top,)
            return hit
        return lambda i: (cell(2 * (i % n) + 1, 2 * (i // n) + 1),)
    if flow.slope is not None and n > 1 and flow.slope <= k:
        def run(i):
            a, b = cell(2 * i * k + 1), cell(2 * (i + 1) * k - 1)
            a, b = a if a < n else top, b if b < n else top
            return tuple(range(a, b + 1) if a <= b else range(b, a + 1))
        return run
    if grid.dim == 1:
        def hits(i):
            out = set()
            for m in range(2 * i * k + 1, 2 * (i + 1) * k, 2):
                c = cell(m)
                out.add(c if c < n else top)
            return tuple(out)
        return hits

    def hits(i):
        out, x, y = set(), i % n, i // n
        ms = range(2 * x * k + 1, 2 * (x + 1) * k, 2)
        for m2 in range(2 * y * k + 1, 2 * (y + 1) * k, 2):
            for m1 in ms:
                out.add(cell(m1, m2))
        return tuple(out)
    return hits


class _ImageStep:
    """The cell image map of one run, updated by the cells that changed.

    ``hits[i]`` is the tuple of cells that cell i's samples (or its table
    row) hit, filled on the cell's first visit by ``hits_of``, picked once
    per run, and ``None`` before.  A step keeps its input ``last`` and
    that input's undilated ``image``.  When fewer than two thirds as many
    cells changed as the new set holds, it walks only the added cells,
    then the removed ones, keeping ``counts``: counts[j] is how many cells
    of the set hit j.  Image bit j flips each time counts[j] crosses zero.
    Otherwise the set moved, and the step walks the whole set without
    counting and drops ``counts``; the next step with a small change
    rebuilds them from its whole set.  Both tables are lists indexed by
    cell, which a step reads faster than a dict.
    """

    def __init__(self, grid: CellGrid, flow: DiscreteSemiflow, samples: int,
                 dilate: bool):
        if type(samples) is not int or not 1 <= samples <= MAX_SAMPLES:
            raise PreconditionError(
                f"samples must be an int between 1 and {MAX_SAMPLES}")
        table = flow.table
        if flow.kind == "table":  # a table has no dimension, only a size
            if samples != 1 or dilate:
                raise PreconditionError(
                    "a table flow takes no samples or dilation")
            if len(table) != grid.total:
                raise PreconditionError("table size must match the grid")
            # a negative row shifts to -1, so it is refused too
            if any(row >> grid.total for row in table):
                raise PreconditionError("table maps a cell outside the grid")
        elif flow.dim != grid.dim:
            raise PreconditionError("flow and grid dimension mismatch")
        self.shift = flow.exact_rotation_shift(grid)
        self.grid = grid
        self.dilate = dilate
        self.hits: List[Optional[Tuple[int, ...]]] = [None] * grid.total
        self.hits_of = (lambda i: tuple(set_bits(table[i]))) \
            if flow.kind == "table" else _sampler(grid, flow, samples)
        self.last = self.image = 0
        self.counts: Optional[List[int]] = None

    def __call__(self, cells: int) -> int:
        grid = self.grid
        if self.shift is not None:
            n, shift = grid.cells_per_axis, self.shift
            image = ((cells << shift) | (cells >> (n - shift))) \
                & grid.full_mask if shift else cells
            return grid.dilate(image) if self.dilate else image
        changed = cells ^ self.last
        # a counted cell costs about 1.03 walked ones, so counting pays while
        # fewer cells changed than the set holds; two thirds keeps a margin,
        # and only moving sets step past it often
        if 3 * changed.bit_count() >= 2 * cells.bit_count():
            image, self.counts = self._walk(cells), None
        elif self.counts is None:
            self.counts = [0] * grid.total
            image = self._flips(cells, 0)
        else:
            image = self.image ^ self._flips(cells & changed,
                                             self.last & changed)
        self.last, self.image = cells, image
        return grid.dilate(image) if self.dilate else image

    def _walk(self, cells: int) -> int:
        """The union of the hits of every cell of ``cells``."""
        hits, hits_of = self.hits, self.hits_of
        out = bytearray((self.grid.total + 7) >> 3)
        for i in set_bits(cells):
            hit = hits[i]
            if hit is None:
                hit = hits[i] = hits_of(i)
            for j in hit:
                out[j >> 3] |= 1 << (j & 7)
        return int.from_bytes(out, "little")

    def _flips(self, added: int, removed: int) -> int:
        """Count the hits of ``added`` in and those of ``removed`` out; the
        image bits whose count crossed zero.  Added cells go first, so no
        count goes negative, and every removed cell was walked before."""
        hits, hits_of, counts = self.hits, self.hits_of, self.counts
        out = bytearray((self.grid.total + 7) >> 3)
        for i in set_bits(added):
            hit = hits[i]
            if hit is None:
                hit = hits[i] = hits_of(i)
            for j in hit:
                c = counts[j]
                if not c:
                    out[j >> 3] ^= 1 << (j & 7)
                counts[j] = c + 1
        for i in set_bits(removed):
            for j in hits[i]:
                c = counts[j] - 1
                if not c:
                    out[j >> 3] ^= 1 << (j & 7)
                counts[j] = c
        return int.from_bytes(out, "little")


def cell_image(grid: CellGrid, flow: DiscreteSemiflow, cells: int,
               samples: int = 1, dilate: bool = False) -> int:
    """Cells hit by mapping sample points of every input cell.

    One step of the image map ``omega_limit_cells`` iterates.  Table flows
    read their table directly and refuse ``samples`` other than 1 and
    ``dilate``.  Exact rotations (angle times cells_per_axis an integer)
    reduce to a cyclic bitset shift, which is every sample's image, and
    skip sampling; ``dilate`` dilates the shifted set.
    """
    grid.check_set(cells)
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

    The finite state space forces eventual periodicity; omega is the limit
    set of the run as a net over the grid, and the trace records
    d(I_n; omega) for every step up to preperiod + period.
    """
    grid.check_set(e)
    if e == 0:
        raise PreconditionError("initial cell set must be nonempty")
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
    omega = limit_set(SubsetNet.over_znn(grid, states[:start],
                                         Periodic(tuple(states[start:]))))
    trace = tuple(enumerate(_dilation_distances(grid, states, omega)))
    return OmegaResult(omega=omega, preperiod=start,
                       period=len(states) - start, trace=trace,
                       sizes=tuple(state.bit_count() for state in states))


def _dilation_distances(grid: CellGrid, cell_sets: List[int],
                        base: int) -> List[Fraction]:
    """d(a; base) for every cell set a, read off one dilation chain of base.

    D_0 = base, and D_{k+1} is the dilation of D_k; d(a; base) = k/n for
    the least k with a inside D_k, found in windows of the chain as the
    module docstring says.  An empty a is at distance 0, even from an empty
    base (the omega trace's convention; ``CellGrid.semidistance`` leaves
    that pair undefined), and a nonempty a at distance inf from an empty
    base, which is never dilated.  The sets must lie in the grid, where the
    chain reaches every cell.
    """
    n, zero = grid.cells_per_axis, Fraction(0)
    dist = [zero if a & base == a else INFINITY for a in cell_sets]
    # the sets outside base are pending, or at inf from an empty base
    pending = [i for i, d in enumerate(dist) if d] if base else []
    at = {}  # k -> k/n, built once per k
    # window[j] is D_{k+j}; window[0] covers no pending set, so a
    # bisection starts at 1
    window, k = [base], 0
    while pending:
        union = 0
        for i in pending:
            union |= cell_sets[i]
        while union & window[-1] != union and len(window) < DILATION_WINDOW:
            window.append(grid.dilate(window[-1]))
        last, left = window[-1], []
        for i in pending:
            a = cell_sets[i]
            if a & last != a:
                left.append(i)
            else:
                j = k + bisect_left(window, True, 1, key=lambda d: a & d == a)
                if j not in at:
                    at[j] = Fraction(j, n)
                dist[i] = at[j]
        k += len(window) - 1
        window, pending = [last], left
    return dist


def attraction_trace_check(result: OmegaResult) -> bool:
    """Trace hits zero at the preperiod and stays there through the cycle."""
    return all(d == 0 for n, d in result.trace if n >= result.preperiod)
