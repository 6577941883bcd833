"""Nets of subsets over three kinds of ground, in tail normal form.

A ``SubsetNet`` is indexed by Z+ and holds a finite preperiod followed by
a symbolic tail rule: ``Periodic``, ``AffineEscape`` or
``GeometricConverge``.  Its subclass ``FiniteIndexNet`` is indexed by a
finite directed order and holds an explicit assignment of a point set to
every index element.  Each class answers for its own index, so no function
below asks a net which index it has.

Each tail rule is a ``TailRule``: it evaluates and unrolls its values (a
periodic tail slices its cycle), says whether each is one point, labels
itself for reports and, in ``reduce``, validates itself against the ground,
proving with exact closed forms that an affine or geometric tail never hits
an excluded point.  Both proofs are one search, ``_refuse_line_hit``: an
affine tail runs along the line c + s(n) v with s(n) = n, and each
geometric branch along a + s(n) (b - a) with s(n) = r^n, so an excluded
point is hit at n iff it lies on the line at a parameter t
(``_line_parameter``) equal to s(n): t whole, or t = r^n
(``_geometric_exponent``).  Validation reads integers: a geometric ratio
p/q passes when 0 < |p| < q, the proof runs on numerators over a common
denominator, and a geometric limit point is hashed once, for its limit set.
``SubsetNet.over_znn`` asks no rule its type: it reduces the tail, once,
to a ``TailSummary`` of one of three shapes:

* **recurring** -- the tail returns forever to a fixed tuple of *phases*:
  the cycle of a periodic tail, the values at and above the top element of
  a finite index, or ``{a}`` for a constant geometric tail;
* **convergent** -- the tail contracts onto a point ``a`` of the space (a
  geometric tail whose limit point the space contains); the single phase
  ``{a}`` is approached but never reached;
* **lost** -- no phases: an affine tail escapes every bounded set, and a
  geometric tail toward an excluded point accumulates only outside the
  space.

A net's tail, and so its summary, does not depend on its preperiod, and
the exclusion proof covers every n >= n0, the preperiod's length.
``SubsetNet.with_preperiod`` therefore derives a net with a new preperiod
that shares the base net's reduced tail and summary whenever the new
preperiod is at least as long; a shorter one exposes earlier tail values,
so it builds the net afresh with ``over_znn`` and re-runs the proof.

Every limit set, Kuratowski limit, convergence check and compactness
verdict below is a few lines over that summary, so every verdict is exact:
a plain ``bool``, spelled ``holds``/``fails`` only in JSON.
``limit_set_horizon_oracle`` never reads the summary: it intersects
closures of raw ``net.at(n)`` data, an independent route to check against.

Point sets are int bitmasks over ``BitmaskGround`` grounds (a
``FiniteSpace``, or a ``CellGrid`` whose cells stand for their centers)
and frozensets of rational coordinate tuples over ``RationalPointSpace``
grounds.  Each ground owns its point-set operations (``normalize``,
``closure``, ``union``, ``size``, ``subset``, ``in_every_neighborhood``,
``semidistance`` on a metric ground), so the functions below never ask
which kind of ground they hold; the ground's ``rational`` flag only guards
the rules and limits of Q^d alone, and for now the semi-distance criteria.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import (FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .errors import (MalformedInputError, PreconditionError,
                     UnsupportedRuleError)
from .finite_topology import (BitmaskGround, FiniteSpace, set_bits,
                              top_element)
from .pseudometric_core import RationalPointSpace
from .rationals import Point, as_point, scale_points

Ground = Union[BitmaskGround, RationalPointSpace]
SetValue = Union[int, FrozenSet[Point]]


class _ZPlus:
    """The index of every Z+ net: the usual order on Z+."""

    def __repr__(self):
        return "ZNN"


ZNN = _ZPlus()  # equal to nothing but itself, so ``index is ZNN`` is exact


# -- tail rules ---------------------------------------------------------------

class TailRule:
    """A symbolic Z+ tail; by default it unrolls one ``value`` at a time."""

    def values(self, pre_len: int, upto: int) -> list:
        """X_pre_len ... X_upto: the tail's values up to index ``upto``."""
        return [self.value(n, pre_len) for n in range(pre_len, upto + 1)]


@dataclass(frozen=True)
class Periodic(TailRule):
    """Tail cycling through a fixed nonempty list of point sets."""

    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise MalformedInputError("periodic cycle must be nonempty")

    def value(self, n: int, pre_len: int) -> SetValue:
        return self.cycle[(n - pre_len) % len(self.cycle)]

    def values(self, pre_len: int, upto: int) -> list:
        """X_pre_len ... X_upto: enough whole cycles, cut to length."""
        count = upto + 1 - pre_len
        if count <= 0:
            return []
        cycle = self.cycle
        return list((cycle * -(-count // len(cycle)))[:count])

    def is_singleton_valued(self, ground) -> bool:
        return all(ground.size(p) == 1 for p in self.cycle)

    def reduce(self, ground, pre_len: int) -> Tuple[Periodic, TailSummary]:
        """The cycle recurs; a rule whose sets are normalized is kept."""
        cycle = tuple(map(ground.normalize, self.cycle))
        rule = (self if all(map(operator.is_, cycle, self.cycle))
                else Periodic(cycle))
        return rule, TailSummary(cycle, ground.union(cycle), True)

    def label(self, ground) -> str:
        return f"periodic{ground.show_sets(self.cycle)}"


def _need_rational(ground):
    if not ground.rational:
        raise UnsupportedRuleError(
            "affine and geometric tails need the rational backend")


@dataclass(frozen=True)
class AffineEscape(TailRule):
    """Singleton tail X_n = {c + n*v} with v nonzero, escaping every ball."""

    c: Point
    v: Point

    def point(self, n: int) -> Point:
        return tuple(ci + n * vi for ci, vi in zip(self.c, self.v))

    def value(self, n: int, pre_len: int) -> FrozenSet[Point]:
        return frozenset([self.point(n)])

    def is_singleton_valued(self, ground) -> bool:
        return True

    def reduce(self, ground, pre_len: int) -> Tuple[AffineEscape, TailSummary]:
        """An escape is lost: it leaves every bounded set."""
        _need_rational(ground)
        c, v = as_point(self.c), as_point(self.v)
        if len(c) != ground.dim or len(v) != ground.dim:
            raise MalformedInputError("tail rule of wrong dimension")
        if not any(v):
            raise MalformedInputError("escape direction must be nonzero")
        if ground.excluded:  # s(n) = n: a hit needs a whole t
            scale, (cs, vs) = scale_points((c, v))
            _refuse_line_hit("escape", ground, scale, cs, vs,
                             lambda num, den: num if den == 1 else None,
                             pre_len)
        return AffineEscape(c, v), LOST

    def label(self, ground) -> str:
        return f"affine(c={self.c}, v={self.v})"


@dataclass(frozen=True)
class GeometricConverge(TailRule):
    """Tail X_n = {a + r^n (b - a) : b in targets} with 0 < |r| < 1.

    ``b`` is one target point or a tuple of them (a reduced rule holds
    the tuple); every branch contracts toward the analytic limit point
    ``a``.  The limit point may be excluded from the ground space, in
    which case the tail is Cauchy with no limit in the space (the "trap"
    instances of the verification suites).
    """

    a: Point
    b: tuple
    r: Fraction

    @property
    def targets(self) -> tuple:
        """``b`` as a tuple of target points, whether one point or several."""
        seq = tuple(self.b)
        if not seq:
            raise MalformedInputError("geometric tail needs a target point")
        if isinstance(seq[0], (tuple, list)):
            return tuple(map(as_point, seq))
        return (as_point(seq),)

    def point(self, n: int, b: Point) -> Point:
        rn = self.r ** n
        return tuple(ai + rn * (bi - ai) for ai, bi in zip(self.a, b))

    def value(self, n: int, pre_len: int) -> FrozenSet[Point]:
        return frozenset(self.point(n, b) for b in self.targets)

    def is_singleton_valued(self, ground) -> bool:
        """Every value is one point iff all branches share one target."""
        return len(set(self.targets)) == 1

    def reduce(self, ground,
               pre_len: int) -> Tuple[GeometricConverge, TailSummary]:
        """The tail converges to ``a`` if the space holds it, else is lost."""
        _need_rational(ground)
        a, r = as_point(self.a), self.r
        if type(r) is not Fraction:
            r = Fraction(r)
        targets = self.targets
        if len(a) != ground.dim or any(len(b) != ground.dim for b in targets):
            raise MalformedInputError("tail rule of wrong dimension")
        if not 0 < abs(r.numerator) < r.denominator:  # 0 < |r| < 1
            raise MalformedInputError("geometric ratio needs 0 < |r| < 1")
        rule = GeometricConverge(a, targets, r)
        for b in targets:
            _check_geometric_avoids_excluded(ground, rule, b, pre_len)
        limit = frozenset([a])  # the one hash of a; isdisjoint reads it
        if not ground.excluded.isdisjoint(limit):
            return rule, LOST  # Cauchy toward a point the space lacks
        return rule, TailSummary((limit,), limit,
                                 all(b == a for b in targets))

    def label(self, ground) -> str:
        return f"geometric(a={self.a}, b={self.b}, r={self.r})"


class TailSummary(NamedTuple):
    """The long-run behavior of a net's tail (see the module docstring).

    ``phases`` are the sets the tail returns to (``recurs``) or contracts
    onto; a lost tail has none.  ``union`` is the union of the phases.
    """

    phases: tuple
    union: SetValue
    recurs: bool

    @property
    def lost(self) -> bool:
        return not self.phases


LOST = TailSummary((), frozenset(), False)


# -- the net ------------------------------------------------------------------

class SubsetNet:
    """A net of subsets of a ground space, indexed by Z+.

    The index is the usual order on Z+, the constant ``ZNN``, and X_n is
    the n-th preperiod set for n below the preperiod's length and the tail
    rule's value after it.  Z+ is sequential: it is its own final sequence,
    so the paper's sequential notions apply without a check.

    Use ``SubsetNet.over_znn`` or ``SubsetNet.over_finite`` to construct;
    values are normalized (bitmasks / frozensets of checked points), the
    tail rule is validated against the ground space, including the proof
    that affine and geometric tails never hit an excluded point, and the
    tail is reduced to its ``summary``.
    """

    index = ZNN

    def __init__(self, ground: Ground, summary: TailSummary, preperiod: tuple,
                 tail: TailRule):
        self.ground = ground
        self.summary = summary
        self.preperiod = preperiod
        self.tail = tail

    # construction ------------------------------------------------------------

    @classmethod
    def over_znn(cls, ground: Ground, preperiod: Sequence,
                 tail: TailRule) -> "SubsetNet":
        pre = tuple(map(ground.normalize, preperiod))
        if not isinstance(tail, TailRule):
            raise UnsupportedRuleError(f"unknown tail rule: {tail!r}")
        tail, summary = tail.reduce(ground, len(pre))
        # a Z+ net even when called on FiniteIndexNet
        return SubsetNet(ground, summary, pre, tail)

    def with_preperiod(self, preperiod: Sequence) -> "SubsetNet":
        """This Z+ net's tail behind a new, normalized preperiod.

        A preperiod at least as long as this net's shares its reduced tail
        and summary: the exclusion proof already covers every later n.  A
        shorter one exposes earlier tail values, so the net is built
        afresh by ``over_znn``, which re-runs the proof.
        """
        ground = self.ground
        pre = tuple(map(ground.normalize, preperiod))
        if len(pre) < len(self.preperiod):
            return SubsetNet.over_znn(ground, pre, self.tail)
        return SubsetNet(ground, self.summary, pre, self.tail)

    @classmethod
    def over_finite(cls, ground: Ground, index: FiniteSpace,
                    assignment: Sequence) -> "FiniteIndexNet":
        top = top_element(index)
        if len(assignment) != index.n:
            raise MalformedInputError("assignment must cover every index element")
        values = tuple(map(ground.normalize, assignment))
        # the tails above the top element stabilize on the top class
        phases = tuple(values[t] for t in set_bits(index.rows[top]))
        return FiniteIndexNet(ground, index,
                              TailSummary(phases, ground.union(phases), True),
                              values)

    # evaluation ----------------------------------------------------------------

    def at(self, s: int) -> SetValue:
        """X_s for s >= 0."""
        _check_index(s)
        if s < 0:
            raise PreconditionError(f"Z+ index {s} is negative")
        pre = self.preperiod
        return pre[s] if s < len(pre) else self.tail.value(s, len(pre))

    def values(self, upto: int) -> List[SetValue]:
        """X_0 ... X_upto."""
        _check_index(upto)
        pre = self.preperiod
        return [*pre[:max(upto + 1, 0)], *self.tail.values(len(pre), upto)]

    def is_singleton_valued(self) -> bool:
        size = self.ground.size
        return (all(size(s) == 1 for s in self.preperiod)
                and self.tail.is_singleton_valued(self.ground))

    def label(self) -> str:
        """A short canonical instance label for reports."""
        ground = self.ground
        return (f"{ground} pre={ground.show_sets(self.preperiod)} "
                f"{self.tail.label(ground)}")

    def __repr__(self):
        return (f"SubsetNet(znn, pre={len(self.preperiod)}, "
                f"tail={type(self.tail).__name__})")


class FiniteIndexNet(SubsetNet):
    """A net of subsets indexed by a finite directed order.

    The index is a ``FiniteSpace`` whose specialization preorder is the
    index order, so ``index.rows[s]`` is the up-set ``{t : s <= t}``, and
    ``assignment[s]`` is X_s for each element s, an int.  A finite directed
    order is sequential: it has a top element, and the constant sequence at
    the top is final.  The net has no preperiod and no tail rule, so
    ``values`` and ``with_preperiod`` refuse it.
    """

    def __init__(self, ground: Ground, index: FiniteSpace,
                 summary: TailSummary, assignment: tuple):
        self.ground = ground
        self.index = index
        self.summary = summary
        self.assignment = assignment

    def with_preperiod(self, preperiod: Sequence) -> "SubsetNet":
        raise PreconditionError("with_preperiod() needs a Z+ net")

    def at(self, s: int) -> SetValue:
        """X_s for an element s of the finite index."""
        _check_index(s)
        if not 0 <= s < self.index.n:
            raise PreconditionError(
                f"index {s} is not an element of the finite index")
        return self.assignment[s]

    def values(self, upto: int) -> List[SetValue]:
        raise PreconditionError("values() needs a Z+ net")

    def is_singleton_valued(self) -> bool:
        size = self.ground.size
        return all(size(s) == 1 for s in self.assignment)

    def label(self) -> str:
        ground = self.ground
        return (f"{ground} index={self.index.rows} "
                f"values={ground.show_sets(self.assignment)}")

    def __repr__(self):
        return f"SubsetNet(finite index n={self.index.n})"


def _check_index(s):
    if type(s) is not int:  # a bool or a float is no index
        raise PreconditionError(f"index {s!r} is not an int")


def _line_parameter(c, v, scale: int, e: Point) -> Optional[Tuple[int, int]]:
    """The s with c + s*v = e as (num, den) in lowest terms, den > 0, or
    None when e is off that line; c and v (nonzero) are int numerators over
    ``scale``.  Each coordinate p/q of e must give p*scale = c_i*q where v
    is fixed, and one ratio (p*scale - c_i*q) / (q*v_i) where v moves; the
    ratios are compared with the first by cross-multiplication.
    """
    num = den = 0
    for ci, vi, ei in zip(c, v, e):
        q = ei.denominator
        top = ei.numerator * scale - ci * q
        if not vi:
            if top:
                return None
        elif not den:
            num, den = top, q * vi
        elif top * den != num * q * vi:
            return None
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _check_geometric_avoids_excluded(ground: RationalPointSpace,
                                     rule: GeometricConverge, b: Point,
                                     n0: int):
    if not ground.excluded:
        return
    if b == rule.a:
        if rule.a in ground.excluded:
            raise MalformedInputError(
                "constant geometric tail sits on an excluded point")
        return
    # s(n) = r^n: t = 0 is e = a, which the branch only approaches and no
    # power of r equals
    scale, (a, b) = scale_points((rule.a, b))
    _refuse_line_hit("geometric", ground, scale, a,
                     list(map(operator.sub, b, a)),
                     partial(_geometric_exponent, rule.r), n0)


def _refuse_line_hit(kind: str, ground: RationalPointSpace, scale: int, c,
                     v, index_at, n0: int):
    """Refuse a tail c + s(n)*v, for n >= n0, that meets an excluded point,
    naming the least n at which it does.  c and v (nonzero) are int
    numerators over ``scale``; ``index_at(num, den)`` is the n with
    s(n) = num/den, or None.  s is one to one, so no two hits share an n.
    """
    hits = []
    for e in ground.excluded:
        t = _line_parameter(c, v, scale, e)
        n = index_at(*t) if t else None
        if n is not None and n >= n0:
            hits.append((n, e))
    if hits:
        n, e = min(hits)
        raise MalformedInputError(
            f"{kind} tail hits excluded point {e} at n={n}")


def _geometric_exponent(r: Fraction, num: int, den: int) -> Optional[int]:
    """The n >= 0 with r^n = num/den, or None; num/den and r = p/q are in
    lowest terms, with den > 0 and q >= 2.

    p^n/q^n is in lowest terms too, so r^n = num/den iff den is q^n and
    num is p^n: n is the number of times q divides den.
    """
    q, n = r.denominator, 0
    while den % q == 0:
        den //= q
        n += 1
    return n if den == 1 and num == r.numerator ** n else None


# -- limit sets ---------------------------------------------------------------

def limit_set(net: SubsetNet) -> SetValue:
    """The exact limit set: intersection over s of cls(union of the s-tail).

    Every tail union contains the phases and shrinks onto them, so the
    limit set is the closure of the phase union: the recurring sets, the
    point a convergent tail contracts onto, nothing for a lost tail.
    """
    return net.ground.closure(net.summary.union)


def limit_set_horizon_oracle(net: SubsetNet, h: int = 8,
                             h2: Optional[int] = None) -> SetValue:
    """The defining intersection, evaluated on truncated data.

    Exact for finite-index nets (no truncation happens) and for periodic
    Z+ tails, where ``h`` must clear the preperiod and ``h2`` span a full
    cycle beyond ``h``; a shorter window raises ``PreconditionError``.
    Other Z+ tails raise it too: the limit point of a geometric tail never
    appears in any truncated union, and an affine escape leaves every
    truncated union nonempty although its limit set is empty (the
    Kuratowski horizon oracle covers geometric tails).
    """
    if net.index is not ZNN:
        out = None
        for s in range(net.index.n):
            tail_union = net.ground.union(
                net.assignment[t] for t in set_bits(net.index.rows[s]))
            layer = net.ground.closure(tail_union)
            out = layer if out is None else out & layer
        return out
    if not isinstance(net.tail, Periodic):
        raise PreconditionError(
            "the horizon oracle answers periodic Z+ tails only")
    pre_len, p = len(net.preperiod), len(net.tail.cycle)
    if h2 is None:
        h2 = h + 2 * (pre_len + p) + 2
    if h < pre_len or h2 < h + p - 1:
        raise PreconditionError(
            f"window h={h}, h2={h2} must clear the preperiod ({pre_len}) "
            f"and span a cycle ({p}) beyond h")
    sets = net.values(h2)
    out = None
    for s in range(h + 1):
        layer = net.ground.closure(net.ground.union(sets[s:]))
        out = layer if out is None else out & layer
    return out


def sequential_limit_set(net: SubsetNet) -> SetValue:
    """Points reached by convergent selections along monotone final subsequences.

    Computed from the frequent-intersection characterization: ``y`` is in
    the sequential limit set iff the net meets every neighborhood of ``y``
    cofinally, that is, iff some phase meets every one of them: ``y`` lies
    in the closure of some phase.  Over Q^d a finite phase is closed, and a
    convergent tail's selections y_n in X_n tend to its limit point.
    Equality with ``limit_set`` (the closure of the phase union) is a
    verified theorem, not an assumption.
    """
    ground = net.ground
    return ground.union(map(ground.closure, net.summary.phases))


def cluster_set(pointnet: SubsetNet) -> SetValue:
    """Cluster points of a singleton-valued net; equals its limit set."""
    if not pointnet.is_singleton_valued():
        raise PreconditionError("cluster_set needs a singleton-valued net")
    return limit_set(pointnet)


def kuratowski_limits(net: SubsetNet) -> Tuple[FrozenSet[Point],
                                               FrozenSet[Point]]:
    """Exact Kuratowski (limsup, liminf) of a subset net over Q^d.

    Limsup is the phase union (finite, hence closed); liminf intersects it
    with every phase, reading the hashes the frozensets store.  A convergent
    tail has both equal to its limit point; a lost tail has both empty.
    """
    if not net.ground.rational:
        raise PreconditionError("Kuratowski limits need the rational backend")
    summary = net.summary
    return summary.union, summary.union.intersection(*summary.phases)


# -- convergence from above ----------------------------------------------------

def converges_from_above(net: SubsetNet, a) -> bool:
    """Tails eventually inside every neighborhood of the target set.

    Tails shrink onto the phases, so the question is whether the phase union
    lies inside every neighborhood of the target.  Finite backend: that is
    one inclusion in the minimal open superset.  Rational backend: the
    target is finite, so inside every eps-ball means at distance zero, and
    under the max-norm (a metric) that is inclusion in the target.  A
    lost tail is never attracted, not even by the empty target.
    """
    ground, summary = net.ground, net.summary
    a = ground.normalize(a)
    if not summary.phases:
        return False  # lost
    return ground.in_every_neighborhood(summary.union, a)


def _semidistance_target(net: SubsetNet, k) -> SetValue:
    if not net.ground.rational:
        raise PreconditionError("semidistance criterion needs the rational backend")
    k = net.ground.check_set(k)
    if not k:
        raise PreconditionError("target set must be nonempty")
    return k


def semidistance_convergence_check(net: SubsetNet, k) -> bool:
    """Whether d(X_n; k) -> 0, read off the ground's ``semidistance``.

    The sequence cycles through, or tends to, d(phase; k), so a zero limit
    needs d(phase union; k) = 0; on a lost tail it grows or stays positive.
    """
    k = _semidistance_target(net, k)
    summary = net.summary
    return not summary.lost and net.ground.semidistance(summary.union, k) == 0


# -- convergence from below ------------------------------------------------------

def converges_from_below(net: SubsetNet, a) -> bool:
    """Every neighborhood of every target point eventually meets the net.

    The net eventually meets a neighborhood iff every phase does, so every
    target point must lie in the closure of every phase.  Rational
    backend: a phase is finite, so it meets every eps-ball around y iff it
    contains y (distance zero means equality in a metric).
    """
    ground, summary = net.ground, net.summary
    a = ground.normalize(a)
    if not a:
        return True  # vacuous
    if summary.lost:
        return False
    return all(ground.subset(a, ground.closure(phase))
               for phase in summary.phases)


def below_iff_semidistance(net: SubsetNet, k) -> Tuple[bool, bool]:
    """(convergence from below, d(k; X_n) -> 0) for a nonempty compact target.

    The two routes differ (the second reads the ground's ``semidistance``);
    their equality on compact targets is one of the verified statements.
    """
    k = _semidistance_target(net, k)
    below = converges_from_below(net, k)
    # d(k; X_n) cycles through, or tends to, d(k; phase); empty phases give
    # infinity and a lost tail has no phase to approach
    summary = net.summary
    dist = not summary.lost and all(
        net.ground.semidistance(k, phase) == 0 for phase in summary.phases)
    return below, dist


# -- compactness notions ---------------------------------------------------------

def is_eventually_lagrange_stable(net: SubsetNet) -> bool:
    """Some tail union is relatively compact.

    Finite spaces and finite point sets are compact, so recurring phases
    qualify; a convergent tail's closure adds only its limit point, which
    the space contains.  A lost tail is unbounded, or its closure misses
    the only accumulation point, so no tail union is relatively compact.
    """
    return not net.summary.lost


def is_asymptotically_seq_compact(net: SubsetNet) -> bool:
    """Selections along subsequences always have convergent subsequences.

    Selections from a relatively compact tail union have convergent
    subsequences; on these backends the selections of any other net
    escape or converge to a point outside the space, so the verdict is
    eventual Lagrange stability.
    """
    return is_eventually_lagrange_stable(net)


def is_weakly_asymptotically_seq_compact(net: SubsetNet) -> bool:
    """Same question for selections drawn from whole tail unions.

    The verdict provably coincides with the strong form on these backends.
    """
    return is_eventually_lagrange_stable(net)


def is_limit_set_compact(net: SubsetNet) -> bool:
    """Limit set nonempty, compact, and attracting the net from above.

    Compactness of the limit set is automatic on these backends (finite
    spaces and finite point sets), so the verdict reduces to non-emptiness
    plus convergence from above to the limit set.
    """
    ls = limit_set(net)
    return bool(ls) and converges_from_above(net, ls)


# -- eventually / frequently for point nets ---------------------------------------

def eventually_in(pointnet: SubsetNet, u) -> bool:
    """Whether the singleton net is eventually inside the point set u.

    Only recurring phases can hold the net: escaping and non-constant
    geometric tails are injective, so they meet the finite set u only
    finitely often.
    """
    summary = _pointnet_summary(pointnet)
    ground = pointnet.ground
    u = ground.normalize(u)
    return summary.recurs and all(ground.subset(p, u) for p in summary.phases)


def frequently_in(pointnet: SubsetNet, u) -> bool:
    """Whether the singleton net returns to the point set u cofinally."""
    summary = _pointnet_summary(pointnet)
    ground = pointnet.ground
    u = ground.normalize(u)
    return summary.recurs and any(ground.subset(p, u) for p in summary.phases)


def _pointnet_summary(net: SubsetNet) -> TailSummary:
    if not net.is_singleton_valued():
        raise PreconditionError("eventually/frequently need a singleton-valued net")
    return net.summary


# -- aggregate analysis ------------------------------------------------------------

@dataclass(frozen=True)
class NetAnalysis:
    """Everything the CLI reports about one net."""

    limit_set: SetValue
    limit_set_compact: bool
    asympt_seq_compact: bool
    weakly_asympt_seq_compact: bool
    lagrange_stable: bool
    converges_above_to_limit: bool


def analyze(net: SubsetNet) -> NetAnalysis:
    ls = limit_set(net)
    return NetAnalysis(
        limit_set=ls,
        limit_set_compact=is_limit_set_compact(net),
        asympt_seq_compact=is_asymptotically_seq_compact(net),
        weakly_asympt_seq_compact=is_weakly_asymptotically_seq_compact(net),
        lagrange_stable=is_eventually_lagrange_stable(net),
        converges_above_to_limit=converges_from_above(net, ls),
    )
