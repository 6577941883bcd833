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

COORD_DENOMS = (1, 2, 4, 8)
GEOMETRIC_RATIOS = tuple(
    Fraction(p, q) for p, q in
    ((1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3), (1, 4), (-1, 4),
     (3, 4), (-3, 4)))
ESCAPE_STEPS = (Fraction(-2), Fraction(-1), Fraction(-1, 2),
                Fraction(1, 2), Fraction(1), Fraction(2))


def random_point(rng: random.Random, dim: int) -> tuple:
    coords = []
    for _ in range(dim):
        q = rng.choice(COORD_DENOMS)
        p = rng.randint(-8 * q, 8 * q)
        coords.append(Fraction(p, q))
    return tuple(coords)


def random_space(rng: random.Random) -> RationalPointSpace:
    dim = rng.choice((1, 2))
    excluded = {random_point(rng, dim) for _ in range(rng.randint(0, 2))}
    return RationalPointSpace(dim, excluded)


def _random_included_point(rng: random.Random,
                           space: RationalPointSpace) -> tuple:
    while True:
        p = random_point(rng, space.dim)
        if space.contains(p):
            return p


def _random_sets(rng: random.Random, space: RationalPointSpace, count: int,
                 min_size: int) -> list:
    return [frozenset(_random_included_point(rng, space)
                      for _ in range(rng.randint(min_size, 2)))
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
                dim = rng.choice((1, 2))
                a = random_point(rng, dim)
                space = RationalPointSpace(dim, {a})
                b = _random_included_point(rng, space)
                r = rng.choice(GEOMETRIC_RATIOS)
                pre = _random_sets(rng, space, rng.randint(0, 2), min_size)
                return SubsetNet.over_znn(space, pre,
                                          GeometricConverge(a, b, r))
            space = random_space(rng)
            pre = _random_sets(rng, space, rng.randint(0, 2), min_size)
            if family == "periodic":
                cycle = _random_sets(rng, space, rng.randint(1, 3), min_size)
                return SubsetNet.over_znn(space, pre, Periodic(tuple(cycle)))
            if family == "affine":
                c = _random_included_point(rng, space)
                v = tuple(rng.choice(ESCAPE_STEPS) for _ in range(space.dim))
                return SubsetNet.over_znn(space, pre, AffineEscape(c, v))
            if family == "geometric":
                a = _random_included_point(rng, space)
                b = _random_included_point(rng, space)
                r = rng.choice(GEOMETRIC_RATIOS)
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
    ground = net.ground
    if net.is_znn:
        return (f"{ground} pre={ground.show_sets(net.preperiod)} "
                f"{net.tail.label(ground)}")
    return (f"{ground} index={net.index.rows} "
            f"values={ground.show_sets(net.assignment)}")


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


def iter_periodic_nets(space: FiniteSpace, max_cycle: int = 2,
                       max_pre: int = 2,
                       nonempty: bool = False) -> Iterator[SubsetNet]:
    """Every periodic net over ``space`` with cycle <= max_cycle and
    preperiod <= max_pre, cycle-major: ``iter_periodic_cycles`` flattened,
    each net derived from its cycle's base net."""
    for base, pres in iter_periodic_cycles(space, max_cycle, max_pre,
                                           nonempty):
        for pre in pres:
            yield base.with_preperiod(pre)


def cycle_window(net: SubsetNet):
    """The union of a periodic net's last full cycle window, X_m for the
    last p indices m <= 12 (p the cycle length), from unrolled values."""
    values = net.values(12)
    return net.ground.union(values[len(values) - len(net.tail.cycle):])


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
    """Compactness-flavoured implications across both backends.

    Finite backend (compact, locally compact): every nonempty-valued net
    must be limit set compact -- checked exhaustively on up to 3 points
    for periodic nets and on small directed posets for finite-index nets.
    Rational backend: eventually Lagrange stable nets of nonempty sets
    must converge from above to their (nonempty compact) limit set, be
    asymptotically sequentially compact and limit set compact; weak
    asymptotic sequential compactness must force convergence from above
    to the limit set.

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
    for net in rule_net_stream(rng, report.budget, nonempty=True):
        report.instances += 1
        ls = limit_set(net)
        fa = converges_from_above(net, ls)
        if is_eventually_lagrange_stable(net):
            if not ls:
                report.violation(describe_net(net),
                                 "nonempty limit set under Lagrange stability",
                                 "empty")
            for name, verdict in (
                    ("converges from above to L", fa),
                    ("asymptotically seq compact",
                     is_asymptotically_seq_compact(net)),
                    ("limit set compact", is_limit_set_compact(net))):
                if not verdict:
                    report.violation(describe_net(net),
                                     f"{name} under Lagrange stability",
                                     "fails")
        if is_weakly_asymptotically_seq_compact(net) and not fa:
            report.violation(describe_net(net),
                             "weak asymptotic compactness forces "
                             "convergence from above to L", "fails")


@_suite
def suite_pseudometrizable_equivalence(report: SuiteReport, rng) -> None:
    """The four-way equivalence on nonempty-valued nets over Q^d.

    Convergence from above to some nonempty compact set (decided against
    the candidate compact = the limit set), asymptotic sequential
    compactness, its weak form, and limit set compactness must agree on
    every instance.  At least ``budget // 10`` instances are excluded-limit
    traps, where all four must fail together.
    """
    budget = report.budget
    traps = 0
    for i, net in enumerate(rule_net_stream(rng, budget, nonempty=True)):
        report.instances += 1
        if RULE_FAMILIES[i % len(RULE_FAMILIES)] == "trap":
            traps += 1
        ls = limit_set(net)
        # an empty limit set leaves no compact target to attract the net
        above = bool(ls) and semidistance_convergence_check(net, ls)
        vector = {
            "converges from above to a nonempty compact": above,
            "asymptotically seq compact": is_asymptotically_seq_compact(net),
            "weakly asymptotically seq compact":
                is_weakly_asymptotically_seq_compact(net),
            "limit set compact": is_limit_set_compact(net),
        }
        if len(set(vector.values())) != 1:
            got = ", ".join(f"{k}={verdict_to_json(v)['state']}"
                            for k, v in sorted(vector.items()))
            report.violation(describe_net(net), "all four verdicts equal", got)
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
