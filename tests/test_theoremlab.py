import random
from itertools import product

import pytest

from limitset_lab import theoremlab
from limitset_lab.errors import LimitsetError
from limitset_lab.jsonio import report_to_json
from limitset_lab.finite_topology import discrete_space, enumerate_spaces
from limitset_lab.subset_nets import (Periodic, SubsetNet,
                                      is_eventually_lagrange_stable)
from limitset_lab.theoremlab import (EXHIBIT_CAP, SUITES, cycle_window,
                                     describe_net, iter_periodic_cycles,
                                     iter_periodic_nets, random_rule_net,
                                     rule_net_stream,
                                     run_all, run_suite)

# The first exhibits that the per-preperiod loop of separation_containments
# (one exhibit call per derived net and escaping target) met at budget 1000,
# seed 42, in the order it met them.
FIRST_EXHIBITS = [
    {"instance": f"space(1, 3) pre={pre} periodic(1,) A=10",
     "note": "L=11 escapes cls(A)=10 without regularity"}
    for pre in ("()", "(0,)", "(1,)", "(2,)", "(3,)", "(0, 0)", "(0, 1)",
                "(0, 2)", "(0, 3)", "(1, 0)", "(1, 1)", "(1, 2)", "(1, 3)",
                "(2, 0)", "(2, 1)", "(2, 2)", "(2, 3)", "(3, 0)", "(3, 1)",
                "(3, 2)")]


class TestSuiteMachinery:
    def test_unknown_suite_rejected(self):
        with pytest.raises(LimitsetError):
            run_suite("no_such_suite")

    def test_suites_register_in_definition_order(self):
        assert list(SUITES) == [
            "limit_set_characterization", "kuratowski_equality",
            "separation_containments", "compactness_equivalences",
            "pseudometrizable_equivalence", "sequential_limits"]
        for name, report in zip(SUITES, run_all(budget=8, seed=42)):
            assert report.suite == name
            # perfbench wraps both bindings by name; they must be one object
            assert SUITES[name] is getattr(theoremlab, f"suite_{name}")

    def test_all_suites_pass_at_small_budget(self):
        for report in run_all(budget=60, seed=42):
            assert report.passed, (report.suite, report.violations[:3])
            assert report.instances > 0

    def test_reports_are_deterministic(self):
        for name in SUITES:
            first = report_to_json(run_suite(name, budget=40, seed=7))
            second = report_to_json(run_suite(name, budget=40, seed=7))
            assert first == second

    def test_seed_changes_random_instances(self):
        a = run_suite("kuratowski_equality", budget=25, seed=1)
        b = run_suite("kuratowski_equality", budget=25, seed=2)
        assert a.passed and b.passed  # different instances, same outcome

    def test_elapsed_excluded_from_canonical_dict(self):
        report = run_suite("kuratowski_equality", budget=10, seed=3)
        d = report_to_json(report)
        assert "elapsed_seconds" not in d
        assert report.elapsed_seconds > 0

    def test_separation_suite_emits_exhibits(self):
        report = run_suite("separation_containments", budget=10, seed=42)
        assert report.passed
        assert report.exhibit_count > 0  # non-regular spaces break the lemma
        assert report.exhibits  # a capped sample is recorded

    @pytest.mark.parametrize("budget,seed",
                             [(40, 48), (100, 2), (100, 24), (100, 32)])
    def test_sequential_limits_redraws_tails_on_excluded_points(self, budget,
                                                                seed):
        # dropping a preperiod can start an affine tail on an excluded point
        report = run_suite("sequential_limits", budget=budget, seed=seed)
        assert report.passed and report.instances > 0

    def test_only_kept_exhibits_are_labelled(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return describe_net(net)

        monkeypatch.setattr(theoremlab, "describe_net", counting)
        report = theoremlab.suite_separation_containments(1000, 42)
        assert report.passed
        # 190,680 exhibits on 1-3 point spaces; only the first few are kept
        assert report.exhibit_count == 190_680
        assert len(report.exhibits) == EXHIBIT_CAP
        assert len(calls) <= EXHIBIT_CAP

    @pytest.mark.parametrize("cap", [0, 1, 7, EXHIBIT_CAP])
    def test_exhibit_count_does_not_depend_on_the_cap(self, cap,
                                                      monkeypatch):
        # past the cap a cycle's exhibits are counted in one step; the count
        # and the kept exhibits must be those of one call per exhibit
        monkeypatch.setattr(theoremlab, "EXHIBIT_CAP", cap)
        report = theoremlab.suite_separation_containments(1000, 42)
        assert report.passed
        assert report.exhibit_count == 190_680
        assert report.exhibits == sorted(
            FIRST_EXHIBITS[:cap], key=lambda e: (e["instance"], e["note"]))

    def test_converges_from_above_asked_once_per_base_and_target(
            self, monkeypatch):
        calls = []
        real = theoremlab.converges_from_above

        def counting(net, a):
            calls.append((net.ground.rows, net.tail.cycle, net.preperiod, a))
            return real(net, a)

        monkeypatch.setattr(theoremlab, "converges_from_above", counting)
        report = theoremlab.suite_separation_containments(1000, 42)
        assert report.passed and report.exhibit_count == 190_680
        assert all(pre == () for _, _, pre, _ in calls)  # base nets only
        assert len(set(calls)) == len(calls)
        targets = sum(len(list(theoremlab.iter_periodic_cycles(space))) << n
                      for n in (1, 2, 3) for space in enumerate_spaces(n))
        assert len(calls) <= targets

    def test_is_limit_set_compact_asked_once_per_cycle(self, monkeypatch):
        budget, seed = 40, 42
        calls = {"periodic": [], "finite": 0, "rational": 0}
        real = theoremlab.is_limit_set_compact

        def counting(net):
            if net.ground.rational:
                calls["rational"] += 1
            elif net.is_znn:
                calls["periodic"].append(
                    (net.ground.rows, net.tail.cycle, net.preperiod))
            else:
                calls["finite"] += 1
            return real(net)

        monkeypatch.setattr(theoremlab, "is_limit_set_compact", counting)
        report = theoremlab.suite_compactness_equivalences(budget, seed)
        assert report.passed
        cycles = [(space.rows, base.tail.cycle, ())
                  for n in (1, 2, 3) for space in enumerate_spaces(n)
                  for base, _ in theoremlab.iter_periodic_cycles(
                      space, nonempty=True)]
        assert calls["periodic"] == cycles
        assert calls["finite"] == sum(
            1 for order in theoremlab.iter_directed_posets(3)
            for n in (1, 2) for space in enumerate_spaces(n)
            for _ in theoremlab.iter_finite_assignments(space, order,
                                                        nonempty=True))
        # the rational block asks only eventually Lagrange stable nets
        rng = random.Random(f"{seed}:compactness_equivalences")
        assert calls["rational"] == sum(
            map(is_eventually_lagrange_stable,
                rule_net_stream(rng, budget, nonempty=True)))

    @pytest.mark.parametrize("suite", ["compactness_equivalences",
                                       "sequential_limits"])
    def test_a_failing_cycle_is_reported_per_derived_net(self, suite,
                                                         monkeypatch):
        # D2 is Hausdorff, so sequential_limits sweeps it too
        rows = discrete_space(2).rows
        real = theoremlab.is_limit_set_compact
        asked = []

        def failing_on_d2(net):
            if (not net.ground.rational and net.is_znn
                    and net.ground.rows == rows):
                asked.append(net)
                return False
            return real(net)

        monkeypatch.setattr(theoremlab, "is_limit_set_compact", failing_on_d2)
        report = run_suite(suite, budget=8, seed=42)
        labels = [v["instance"] for v in report.violations]
        want = [describe_net(net) for net in iter_periodic_nets(
            discrete_space(2), nonempty=True)]
        assert len(set(want)) == len(want) == (3 + 9) * (1 + 3 + 9)
        assert labels == sorted(want)
        # one failing answer per cycle fans out to all 13 preperiods
        assert len(asked) == 3 + 9

    def test_a_wrong_window_point_is_reported_per_derived_net(
            self, monkeypatch):
        rows = discrete_space(2).rows
        real_limit_set, real_values = theoremlab.limit_set, SubsetNet.values
        unrolled = []

        def flipped_on_d2(net):
            flip = (not net.ground.rational and net.is_znn
                    and net.ground.rows == rows)
            return real_limit_set(net) ^ flip

        def counting(net, upto):
            unrolled.append((net.ground.rows, net.tail.cycle, net.preperiod))
            return real_values(net, upto)

        monkeypatch.setattr(theoremlab, "limit_set", flipped_on_d2)
        monkeypatch.setattr(SubsetNet, "values", counting)
        report = theoremlab.suite_limit_set_characterization(1000, 42)
        want = [f"{describe_net(net)} y=0"
                for net in iter_periodic_nets(discrete_space(2))]
        assert len(set(want)) == len(want) == (4 + 16) * (1 + 4 + 16)
        assert [v["instance"] for v in report.violations] == sorted(want)
        for v in report.violations:  # the oracle and limit_set disagree
            found = v["expected"] == "membership True from subsequence search"
            assert v["got"] == f"limit_set gives {not found}"
        # the window is unrolled once per base net, not once per preperiod
        assert unrolled == [
            (space.rows, base.tail.cycle, ())
            for n in (1, 2, 3) for space in enumerate_spaces(n)
            for base, _ in iter_periodic_cycles(space)]

    def test_trap_quota_tracked(self):
        report = run_suite("pseudometrizable_equivalence", budget=40, seed=42)
        assert report.passed  # 10 of 40 instances are traps

    @pytest.mark.parametrize("seed", [1, 42])
    def test_trap_quota_at_small_budgets(self, seed):
        # every fourth draw is a trap, so budgets 1-3 draw none; the quota
        # is budget // 10 traps, which is 0 there
        for budget in range(1, 13):
            report = run_suite("pseudometrizable_equivalence", budget=budget,
                               seed=seed)
            assert report.passed, (budget, report.violations)


def per_net_periodic_nets(space, nonempty=False):
    """Every periodic net with cycle <= 2 and preperiod <= 2, each built by
    its own ``over_znn`` call, in cycle-major order."""
    masks = range(1 if nonempty else 0, 1 << space.n)
    for cyc_len in (1, 2):
        for cycle in product(masks, repeat=cyc_len):
            for pre_len in (0, 1, 2):
                for pre in product(masks, repeat=pre_len):
                    yield SubsetNet.over_znn(space, pre, Periodic(cycle))


class TestWindowOracle:
    def test_every_preperiod_shares_its_base_window(self):
        # the per-instance route of limit_set_characterization: its window
        # starts past every preperiod, so the suite may unroll only the
        # base net of each cycle
        checked = 0
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                for base, pres in iter_periodic_cycles(space):
                    window = cycle_window(base)
                    for pre in pres:
                        net = base.with_preperiod(pre)
                        assert cycle_window(net) == window, describe_net(net)
                    checked += len(pres)
        assert checked == 154_146


class TestGenerators:
    @pytest.mark.parametrize("nonempty", [False, True])
    def test_periodic_nets_keep_the_per_net_order(self, nonempty):
        for n in (1, 2, 3):
            for space in enumerate_spaces(n):
                got = map(describe_net, iter_periodic_nets(space,
                                                           nonempty=nonempty))
                want = map(describe_net, per_net_periodic_nets(space,
                                                               nonempty))
                assert list(got) == list(want)

    def test_labels_are_pinned(self):
        from fractions import Fraction as F

        from limitset_lab.finite_topology import SIERPINSKI, FiniteSpace
        from limitset_lab.pseudometric_core import RationalPointSpace
        from limitset_lab.subset_nets import AffineEscape, GeometricConverge

        def pt(*coords):
            return tuple(F(c) for c in coords)

        q1 = RationalPointSpace(1)
        top = FiniteSpace.from_matrix([[True, False, True],
                                       [False, True, True],
                                       [False, False, True]])
        cases = [
            (SubsetNet.over_znn(SIERPINSKI, [0b01], Periodic((0b10, 0b11))),
             "space(3, 2) pre=(1,) periodic(2, 3)"),
            (SubsetNet.over_znn(q1, [[pt(3)]], Periodic(
                (frozenset({pt(1), pt(F(1, 2))}), frozenset()))),
             "Q^1-[] pre=(('(Fraction(3, 1),)',),) periodic(("
             "'(Fraction(1, 1),)', '(Fraction(1, 2),)'), ())"),
            (SubsetNet.over_znn(q1, [], AffineEscape((0,), (F(1, 2),))),
             "Q^1-[] pre=() affine(c=(Fraction(0, 1),), "
             "v=(Fraction(1, 2),))"),
            (SubsetNet.over_znn(q1, [],
                                GeometricConverge(pt(0), pt(1), F(1, 2))),
             "Q^1-[] pre=() geometric(a=(Fraction(0, 1),), "
             "b=((Fraction(1, 1),),), r=1/2)"),
            (SubsetNet.over_znn(RationalPointSpace(2, [pt(0, 0)]), [],
                                GeometricConverge(pt(0, 0),
                                                  (pt(1, 1), pt(-1, 2)),
                                                  F(-1, 3))),
             "Q^2-['(Fraction(0, 1), Fraction(0, 1))'] pre=() "
             "geometric(a=(Fraction(0, 1), Fraction(0, 1)), "
             "b=((Fraction(1, 1), Fraction(1, 1)), "
             "(Fraction(-1, 1), Fraction(2, 1))), r=-1/3)"),
            (SubsetNet.over_finite(discrete_space(2), top, [1, 2, 3]),
             "space(1, 2) index=(5, 6, 4) values=(1, 2, 3)"),
            (SubsetNet.over_finite(q1, top, [[pt(5)], [pt(1)],
                                             [pt(1), pt(2)]]),
             "Q^1-[] index=(5, 6, 4) values=(('(Fraction(5, 1),)',), "
             "('(Fraction(1, 1),)',), ('(Fraction(1, 1),)', "
             "'(Fraction(2, 1),)'))"),
        ]
        for net, label in cases:
            assert describe_net(net) == label

    def test_stream_is_deterministic(self):
        rng1, rng2 = random.Random("x"), random.Random("x")
        nets1 = [describe_net(n) for n in rule_net_stream(rng1, 20)]
        nets2 = [describe_net(n) for n in rule_net_stream(rng2, 20)]
        assert nets1 == nets2

    def test_families_have_the_advertised_shape(self):
        from limitset_lab.subset_nets import (AffineEscape, GeometricConverge,
                                              Periodic)
        rng = random.Random("shape")
        kinds = {"periodic": Periodic, "affine": AffineEscape,
                 "geometric": GeometricConverge, "trap": GeometricConverge}
        for family, cls in kinds.items():
            for _ in range(10):
                net = random_rule_net(rng, family)
                assert isinstance(net.tail, cls)
                if family == "trap":
                    assert net.tail.a in net.ground.excluded

    def test_nonempty_flag_respected(self):
        rng = random.Random("ne")
        for i in range(40):
            net = random_rule_net(rng, ("periodic", "trap")[i % 2],
                                  nonempty=True)
            for n in range(8):
                assert net.at(n)
