"""Property-based verification suites for the limit-set theory.

Each suite sweeps a family of instances (exhaustive at desk scale where
the statement allows, seeded random elsewhere), pairs the library's
symbolic answers with an independent route, and reports violations.
Conclusions the theory proves only under hypotheses may legitimately
break without them; such cases are collected as *exhibits*, never as
violations.  Reports are deterministic functions of (budget, seed).

A suite is one function ``suite_<name>(report, rng)`` decorated with
``@_suite``.  The decorator registers it in ``SUITES`` under ``<name>``,
in definition order, and binds ``suite_<name>(budget, seed)``, which
builds the ``SuiteReport``, seeds ``rng`` as
``random.Random(f"{seed}:{name}")``, times the body and returns the
finalized report.  The body reads its budget as ``report.budget``.

The exhaustive suites sweep periodic nets on every topology with 1-3
points (``iter_spaces``) cycle by cycle (``iter_periodic_cycles``): every
preperiod variant of a cycle is derived from one base net with an empty
preperiod and shares its tail summary.  ``limit_set``,
``converges_from_above`` and ``is_limit_set_compact`` read only the
summary and the ground, so each is asked once per (space, cycle) on the
base net.  So is the ``limit_set_characterization`` oracle, whose window
of unrolled values starts past every preperiod.  Ask once per cycle,
report per preperiod: a finding is reported against every preperiod
variant's own label (``SuiteReport.violation_each``), and a derived net
is built only to label what is reported.

The rational suites draw random rule nets (``random_rule_net``) from
interned coordinates, and hash each point they draw once, rejected draws
included; the same seed draws the same nets from the same bits.  Every
draw is one exact kernel on ``rng.getrandbits`` (``_pick``, inlined in
``random_point``), bit for bit with ``Random.choice`` and ``randint``.
The main theorem over Q^d is one table (``pseudometrizable_equivalence``).
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Callable, Iterator, List, Tuple

from .errors import LimitsetError
from .finite_topology import (FiniteSpace, closure, enumerate_spaces,
                              is_hausdorff, is_regular)
from .jsonio import verdict_to_json
from .pseudometric_core import RationalPointSpace
from .subset_nets import (AffineEscape, GeometricConverge, Periodic,
                          SubsetNet, cluster_set,
                          converges_from_above,
                          is_asymptotically_seq_compact,
                          is_eventually_lagrange_stable,
                          is_limit_set_compact,
                          is_weakly_asymptotically_seq_compact,
                          kuratowski_limits, limit_set,
                          semidistance_convergence_check,
                          sequential_limit_set)

EXHIBIT_CAP = 20


@dataclass
class SuiteReport:
    suite: str
    seed: int
    budget: int
    instances: int = 0
    violations: list = field(default_factory=list)
    exhibits: list = field(default_factory=list)
    exhibit_count: int = 0
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def violation(self, instance: str, expected: str, got: str):
        self.violations.append(
            {"instance": instance, "expected": expected, "got": got})

    def violation_each(self, base: SubsetNet, pres: list, expected: str,
                       got: str, suffix: str = ""):
        """One per-cycle finding, reported against the label of each
        preperiod variant of ``base`` in turn, ``suffix`` appended."""
        for pre in pres:
            self.violation(describe_net(base.with_preperiod(pre)) + suffix,
                           expected, got)

    def exhibit(self, label: Callable[[], Tuple[str, str]]):
        """Count one exhibit; ``label()`` gives its (instance, note) and runs
        only for the first ``EXHIBIT_CAP`` exhibits, the ones kept."""
        self.exhibit_count += 1
        if len(self.exhibits) < EXHIBIT_CAP:
            instance, note = label()
            self.exhibits.append({"instance": instance, "note": note})

    def finalize(self) -> "SuiteReport":
        self.violations.sort(key=lambda v: (v["instance"], v["expected"], v["got"]))
        self.exhibits.sort(key=lambda v: (v["instance"], v["note"]))
        return self


# -- instance generators -------------------------------------------------------

# Every draw is one exact kernel on ``rng.getrandbits``.  ``_pick(rng, seq)``
# is ``Random._randbelow_with_getrandbits(len(seq))`` line for line: with
# k = len(seq).bit_length() it draws r = getrandbits(k) until r < len(seq)
# and returns seq[r].  ``Random.choice(seq)`` is seq[_randbelow(len(seq))],
# and ``randint(a, b)`` is a + _randbelow(b - a + 1), so a pick from seq, or
# from an interned range(a, b + 1), consumes the same bits, rejected words
# included, and returns the same value; ``rng.getstate()`` after it is the
# same too (CPython 3.10 to 3.13).  The wrappers' frames are what it saves.

def _pick(rng: random.Random, seq):
    n = len(seq)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return seq[r]


DIMS = (1, 2)
UP_TO_TWO, ONE_TO_THREE = range(3), range(1, 4)
SET_SIZES = (UP_TO_TWO, range(1, 3))  # randint(min_size, 2), by min_size

# A random coordinate is p/q with q drawn from COORD_DENOMS and p from
# [-COORD_SPAN * q, COORD_SPAN * q].  COORDS interns every such coordinate
# once, one row per denominator in COORD_DENOMS order, so a draw builds no
# Fraction.  Picking a row and then an index within it is choosing q and
# calling randint(-k, k), k = COORD_SPAN * q: the index is one
# _randbelow(2k + 1).  ``random_point`` inlines both picks, with each row's
# length and bit width in COORD_ROWS.
COORD_DENOMS = (1, 2, 4, 8)
COORD_SPAN = 8
COORDS = tuple(tuple(Fraction(p, q) for p in
                     range(-COORD_SPAN * q, COORD_SPAN * q + 1))
               for q in COORD_DENOMS)
COORD_ROWS = tuple((row, len(row), len(row).bit_length()) for row in COORDS)
ROW_COUNT, ROW_BITS = len(COORDS), len(COORDS).bit_length()
GEOMETRIC_RATIOS = tuple(
    Fraction(p, q) for p, q in
    ((1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3), (1, 4), (-1, 4),
     (3, 4), (-3, 4)))
ESCAPE_STEPS = (Fraction(-2), Fraction(-1), Fraction(-1, 2),
                Fraction(1, 2), Fraction(1), Fraction(2))


def random_point(rng: random.Random, dim: int) -> tuple:
    getrandbits = rng.getrandbits
    point = []
    for _ in range(dim):
        i = getrandbits(ROW_BITS)
        while i >= ROW_COUNT:
            i = getrandbits(ROW_BITS)
        row, n, k = COORD_ROWS[i]
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        point.append(row[j])
    return tuple(point)


def random_space(rng: random.Random) -> RationalPointSpace:
    dim = _pick(rng, DIMS)
    excluded = frozenset(random_point(rng, dim)
                         for _ in range(_pick(rng, UP_TO_TWO)))
    return RationalPointSpace(dim, excluded)


# A drawn point is canonical and has the space's dimension, so it is tested
# against ``space.excluded`` directly, not by ``contains``.  A point drawn
# for a set is drawn as its singleton: ``isdisjoint`` and the set's union
# read the hash the singleton stores, so each point is hashed once.

def _random_included_point(rng: random.Random,
                           space: RationalPointSpace) -> tuple:
    excluded = space.excluded
    while True:
        p = random_point(rng, space.dim)
        if not excluded or p not in excluded:
            return p


def _random_included_singleton(rng: random.Random,
                               space: RationalPointSpace) -> frozenset:
    excluded = space.excluded
    while True:
        s = frozenset([random_point(rng, space.dim)])
        if excluded.isdisjoint(s):
            return s


def _random_sets(rng: random.Random, space: RationalPointSpace, count: int,
                 min_size: int) -> list:
    sizes = SET_SIZES[min_size]
    return [frozenset().union(*[_random_included_singleton(rng, space)
                                for _ in range(_pick(rng, sizes))])
            for _ in range(count)]


def random_rule_net(rng: random.Random, family: str,
                    nonempty: bool = False) -> SubsetNet:
    """One random net of the given family over a random rational space.

    ``family`` is one of periodic / affine / geometric / trap (a geometric
    net whose limit point is excluded from the space).  With ``nonempty``
    every net value has at least one point.
    """
    min_size = 1 if nonempty else 0
    for _ in range(64):
        try:
            if family == "trap":
                dim = _pick(rng, DIMS)
                a = random_point(rng, dim)
                space = RationalPointSpace(dim, frozenset((a,)))
                b = _random_included_point(rng, space)
                r = _pick(rng, GEOMETRIC_RATIOS)
                pre = _random_sets(rng, space, _pick(rng, UP_TO_TWO), min_size)
                return SubsetNet.over_znn(space, pre,
                                          GeometricConverge(a, b, r))
            space = random_space(rng)
            pre = _random_sets(rng, space, _pick(rng, UP_TO_TWO), min_size)
            if family == "periodic":
                cycle = _random_sets(rng, space, _pick(rng, ONE_TO_THREE),
                                     min_size)
                return SubsetNet.over_znn(space, pre, Periodic(tuple(cycle)))
            if family == "affine":
                c = _random_included_point(rng, space)
                v = tuple(_pick(rng, ESCAPE_STEPS) for _ in range(space.dim))
                return SubsetNet.over_znn(space, pre, AffineEscape(c, v))
            if family == "geometric":
                a = _random_included_point(rng, space)
                b = _random_included_point(rng, space)
                r = _pick(rng, GEOMETRIC_RATIOS)
                return SubsetNet.over_znn(space, pre,
                                          GeometricConverge(a, b, r))
            raise ValueError(f"unknown family: {family}")
        except LimitsetError:
            continue  # tail crossed an excluded point; redraw
    raise RuntimeError("could not draw a valid instance")


def random_tail_net(rng: random.Random, family: str) -> SubsetNet:
    """A random net of the given family with its preperiod dropped.

    The tail then starts at n = 0, where it may hit an excluded point that
    the preperiod used to cover; such draws are redrawn.
    """
    for _ in range(64):
        net = random_rule_net(rng, family)
        try:
            return SubsetNet.over_znn(net.ground, (), net.tail)
        except LimitsetError:
            continue
    raise RuntimeError("could not draw a valid instance")


RULE_FAMILIES = ("periodic", "affine", "geometric", "trap")


def rule_net_stream(rng: random.Random, budget: int,
                    nonempty: bool = False) -> Iterator[SubsetNet]:
    """Deterministic round-robin over the rule families."""
    for i in range(budget):
        yield random_rule_net(rng, RULE_FAMILIES[i % len(RULE_FAMILIES)],
                              nonempty)


def describe_net(net: SubsetNet) -> str:
    """A short canonical instance label for reports."""
    return net.label()


# -- exhaustive families ---------------------------------------------------------

def iter_spaces(max_n: int = 3) -> Iterator[FiniteSpace]:
    """Every topology on 1..max_n points, fewest points first."""
    for n in range(1, max_n + 1):
        yield from enumerate_spaces(n)


def iter_periodic_cycles(space: FiniteSpace, max_cycle: int = 2,
                         max_pre: int = 2, nonempty: bool = False
                         ) -> Iterator[Tuple[SubsetNet, list]]:
    """Every periodic cycle over ``space`` with length <= max_cycle, as
    ``(base, pres)``: ``base`` is the cycle's net with an empty preperiod,
    reduced once, and ``pres`` lists every preperiod of length <= max_pre
    (built once per space, shared by every cycle), shortest first.

    ``base.with_preperiod(pre)`` is the net for one preperiod.  Every
    preperiod is at least as long as the base's empty one, so each derived
    net shares the base's ``summary``; an answer that reads only
    ``net.summary`` and ``net.ground`` (``limit_set``,
    ``converges_from_above``, ``is_limit_set_compact``) is therefore the
    same for the base and every derived net, and a suite may ask it once
    per cycle.
    """
    masks = range(1 if nonempty else 0, 1 << space.n)
    pres = [pre for pre_len in range(max_pre + 1)
            for pre in product(masks, repeat=pre_len)]
    for cyc_len in range(1, max_cycle + 1):
        for cycle in product(masks, repeat=cyc_len):
            yield SubsetNet.over_znn(space, (), Periodic(cycle)), pres


def cycle_window(net: SubsetNet):
    """The union of a periodic net's last full cycle window, from unrolled
    values: X_m for the last p indices m <= h (p the cycle length), at the
    horizon h = max(12, preperiod length + p - 1), so that the window is a
    whole cycle past the preperiod.  It reads the lengths, not the
    summary."""
    p = len(net.tail.cycle)
    values = net.values(max(12, len(net.preperiod) + p - 1))
    return net.ground.union(values[-p:])


def iter_directed_posets(max_n: int) -> Iterator[FiniteSpace]:
    """All labeled directed posets with at most max_n elements, as the
    finite spaces whose preorder they are."""
    for space in iter_spaces(max_n):
        n, rows = space.n, space.rows
        antisym = all(not (rows[a] >> b & 1 and rows[b] >> a & 1)
                      for a in range(n) for b in range(a + 1, n))
        if antisym and reduce(operator.and_, rows):  # a top: directed
            yield space


def iter_finite_assignments(space: FiniteSpace, order: FiniteSpace,
                            nonempty: bool = False) -> Iterator[SubsetNet]:
    masks = range(1 if nonempty else 0, 1 << space.n)
    for assignment in product(masks, repeat=order.n):
        yield SubsetNet.over_finite(space, order, assignment)


# -- suites ------------------------------------------------------------------------

SUITES: dict = {}


def _suite(body: Callable[[SuiteReport, random.Random], None]):
    """Register ``suite_<name>(report, rng)`` as suite ``<name>`` and return
    ``suite_<name>(budget, seed)``, which runs it (see the module docstring)."""
    name = body.__name__.removeprefix("suite_")

    def run(budget: int = 1000, seed: int = 42) -> SuiteReport:
        report = SuiteReport(name, seed, budget)
        start = time.perf_counter()
        body(report, random.Random(f"{seed}:{name}"))
        report.elapsed_seconds = time.perf_counter() - start
        return report.finalize()

    run.__name__ = run.__qualname__ = body.__name__
    run.__doc__ = body.__doc__
    SUITES[name] = run
    return run


@_suite
def suite_limit_set_characterization(report: SuiteReport, rng) -> None:
    """Membership in the limit set versus the convergent-subsequence search.

    Exhaustive over all topologies on up to 3 points and all periodic nets
    with cycle <= 2 and preperiod <= 2.  The oracle reads only unrolled
    values, never the summary: ``cycle_window`` unrolls the net to horizon
    12 and takes the union of the final full cycle window.  For each point
    y the net meets the minimal neighborhood U_y cofinally iff that window
    meets U_y; a hit certifies a monotone final subsequence with
    selections converging to y.  The window starts past every preperiod,
    so both sides are worked out once per cycle (see the module docstring).
    """
    for space in iter_spaces():
        neighborhoods = [space.minimal_open(y) for y in range(space.n)]
        for base, pres in iter_periodic_cycles(space):
            report.instances += len(pres)
            ls = limit_set(base)
            window = cycle_window(base)
            for y, uy in enumerate(neighborhoods):
                found = bool(window & uy)
                if bool(ls >> y & 1) != found:
                    report.violation_each(
                        base, pres,
                        f"membership {found} from subsequence search",
                        f"limit_set gives {not found}", f" y={y}")


@_suite
def suite_kuratowski_equality(report: SuiteReport, rng) -> None:
    """limit_set = Kuratowski Limsup on random rule nets over Q^d."""
    for net in rule_net_stream(rng, report.budget):
        report.instances += 1
        ls = limit_set(net)
        limsup, liminf = kuratowski_limits(net)
        if ls != limsup:
            report.violation(describe_net(net),
                             f"Limsup {net.ground.show_sets([limsup])}",
                             f"limit_set {net.ground.show_sets([ls])}")
        if not liminf <= limsup:
            report.violation(describe_net(net), "Liminf inside Limsup",
                             "containment fails")


@_suite
def suite_separation_containments(report: SuiteReport, rng) -> None:
    """Limit-set containments under separation hypotheses, plus exhibits.

    On Hausdorff (= discrete) spaces, convergence from above to a set
    forces the limit set inside it; on regular (= symmetric preorder)
    spaces, inside its closure.  On the remaining spaces the regular
    conclusion may fail; such witnesses are reported as exhibits, which
    demonstrate the hypothesis is necessary and never count as failures.

    The findings are worked out once per cycle and target (see the module
    docstring).  Exhibits are met in per-net order (cycle, preperiod,
    target), and those past ``EXHIBIT_CAP`` are counted in one step.
    """
    for space in iter_spaces():
        hausdorff = is_hausdorff(space)
        regular = is_regular(space)
        for base, pres in iter_periodic_cycles(space):
            ls = limit_set(base)
            # targets attracting the net although L is not inside them
            attracting = [a for a in range(1 << space.n)
                          if ls & ~a and converges_from_above(base, a)]
            escapes = [(a, cls_a) for a in attracting
                       if ls & ~(cls_a := closure(space, a))]
            report.instances += len(pres)
            if not regular and len(report.exhibits) >= EXHIBIT_CAP:
                report.exhibit_count += len(pres) * len(escapes)
                continue
            for a in attracting if hausdorff else ():
                report.violation_each(base, pres,
                                      "L inside K on a Hausdorff space",
                                      f"L={ls:b}", f" K={a:b}")
            for a, _ in escapes if regular else ():
                report.violation_each(base, pres,
                                      "L inside cls(A) on a regular space",
                                      f"L={ls:b}", f" A={a:b}")
            for pre in pres if escapes and not regular else ():
                for a, cls_a in escapes:
                    report.exhibit(lambda: (
                        f"{describe_net(base.with_preperiod(pre))} A={a:b}",
                        f"L={ls:b} escapes cls(A)={cls_a:b} "
                        "without regularity"))


@_suite
def suite_compactness_equivalences(report: SuiteReport, rng) -> None:
    """Limit set compactness on the compact finite backend.

    Every nonempty-valued net over a finite space (compact, locally
    compact) must be limit set compact -- checked exhaustively on up to 3
    points for periodic nets and on small directed posets for finite-index
    nets.  The implications from Lagrange stability over Q^d are rows of
    ``pseudometrizable_equivalence``'s table.

    The periodic block asks ``is_limit_set_compact`` once per cycle (see
    the module docstring).
    """
    for space in iter_spaces():
        for base, pres in iter_periodic_cycles(space, nonempty=True):
            report.instances += len(pres)
            if not is_limit_set_compact(base):
                report.violation_each(base, pres,
                                      "limit set compact on a compact space",
                                      "verdict fails")
    for order in iter_directed_posets(3):
        for space in iter_spaces(2):
            for net in iter_finite_assignments(space, order, nonempty=True):
                report.instances += 1
                if not is_limit_set_compact(net):
                    report.violation(describe_net(net),
                                     "limit set compact on a compact space",
                                     "verdict fails")


@_suite
def suite_pseudometrizable_equivalence(report: SuiteReport, rng) -> None:
    """The main theorem on nonempty-valued nets over Q^d, as one table.

    Rows: convergence from above to some nonempty compact set (by
    semi-distance, against the candidate compact = the limit set L),
    asymptotic sequential compactness, its weak form and limit set
    compactness agree; Lagrange stability implies L nonempty, convergence
    from above to L (``converges_from_above``), asymptotic sequential
    compactness and limit set compactness; the weak form implies
    convergence from above to L; all four fail on an excluded-limit trap
    (a trap draw whose space excludes its limit point), and at least
    ``budget // 10`` instances must be traps.  Each answer is asked once.
    """
    budget = report.budget
    traps = 0
    for i, net in enumerate(rule_net_stream(rng, budget, nonempty=True)):
        report.instances += 1
        trap = (RULE_FAMILIES[i % len(RULE_FAMILIES)] == "trap"
                and net.tail.a in net.ground.excluded)
        traps += trap
        ls = limit_set(net)
        stable = is_eventually_lagrange_stable(net)
        attracted = converges_from_above(net, ls)
        # an empty limit set leaves no compact target to attract the net
        above = bool(ls) and semidistance_convergence_check(net, ls)
        strong = is_asymptotically_seq_compact(net)
        weak = is_weakly_asymptotically_seq_compact(net)
        compact = is_limit_set_compact(net)
        vector = {"converges from above to a nonempty compact": above,
                  "asymptotically seq compact": strong,
                  "weakly asymptotically seq compact": weak,
                  "limit set compact": compact}
        if len(set(vector.values())) != 1:
            got = ", ".join(f"{k}={verdict_to_json(v)['state']}"
                            for k, v in sorted(vector.items()))
            report.violation(describe_net(net), "all four verdicts equal", got)
        for broken, expected, got in (
                (stable and not ls,
                 "nonempty limit set under Lagrange stability", "empty"),
                (stable and not attracted, "converges from above to L "
                 "under Lagrange stability", "fails"),
                (stable and not strong, "asymptotically seq compact "
                 "under Lagrange stability", "fails"),
                (stable and not compact,
                 "limit set compact under Lagrange stability", "fails"),
                (weak and not attracted, "weak asymptotic compactness forces "
                 "convergence from above to L", "fails"),
                (trap and any(vector.values()),
                 "all four verdicts fail on an excluded-limit trap",
                 "a verdict holds")):
            if broken:
                report.violation(describe_net(net), expected, got)
    if traps < budget // 10:
        report.violation("trap quota", f">= {budget // 10} excluded-limit traps",
                         str(traps))


@_suite
def suite_sequential_limits(report: SuiteReport, rng) -> None:
    """Sequential limit sets and first-countable consequences.

    L = L_seq on the rational backend (first-countable); weak asymptotic
    sequential compactness forces convergence from above to L; singleton
    nets attracted by a nonempty compact set have cluster points; and on
    Hausdorff-or-regular finite spaces, being attracted by some nonempty
    compact set is equivalent to limit set compactness.

    On the finite spaces both sides are asked once per cycle (see the
    module docstring).
    """
    for net in rule_net_stream(rng, report.budget):
        report.instances += 1
        ls = limit_set(net)
        seq = sequential_limit_set(net)
        if ls != seq:
            report.violation(describe_net(net),
                             f"L = L_seq, L={net.ground.show_sets([ls])}",
                             f"L_seq={net.ground.show_sets([seq])}")
        if (is_weakly_asymptotically_seq_compact(net)
                and not converges_from_above(net, ls)):
            report.violation(describe_net(net),
                             "weak seq compactness forces convergence "
                             "from above to L", "fails")
    # singleton nets: attraction by a nonempty compact set yields cluster points
    singleton_families = ("affine", "geometric", "trap")
    for i in range(report.budget // 4):
        family = singleton_families[i % len(singleton_families)]
        net = random_tail_net(rng, family)
        report.instances += 1
        attracted = any(semidistance_convergence_check(net, k)
                        for k in (limit_set(net), net.at(0)) if k)
        if attracted and not cluster_set(net):
            report.violation(describe_net(net),
                             "nonempty cluster set under attraction",
                             "empty cluster set")
    for space in iter_spaces():
        if not (is_hausdorff(space) or is_regular(space)):
            continue
        for base, pres in iter_periodic_cycles(space, nonempty=True):
            report.instances += len(pres)
            attracted = any(converges_from_above(base, k)
                            for k in range(1, 1 << space.n))
            lsc = is_limit_set_compact(base)
            if attracted != lsc:
                report.violation_each(
                    base, pres,
                    "attraction by a nonempty compact set iff "
                    "limit set compact",
                    f"attracted={attracted}, limit_set_compact={lsc}")


def run_suite(name: str, budget: int = 1000, seed: int = 42) -> SuiteReport:
    if name not in SUITES:
        raise LimitsetError(f"unknown suite: {name}")
    return SUITES[name](budget=budget, seed=seed)


def run_all(budget: int = 1000, seed: int = 42) -> List[SuiteReport]:
    return [run_suite(name, budget, seed) for name in SUITES]
