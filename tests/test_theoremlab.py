import random
from fractions import Fraction as F
from itertools import product

import pytest

from limitset_lab import theoremlab
from limitset_lab.errors import LimitsetError
from limitset_lab.jsonio import report_to_json
from limitset_lab.finite_topology import discrete_space, enumerate_spaces
from limitset_lab.pseudometric_core import RationalPointSpace
from limitset_lab.subset_nets import (ZNN, AffineEscape, GeometricConverge,
                                      Periodic, SubsetNet, TailSummary)
from limitset_lab.theoremlab import (EXHIBIT_CAP, SUITES, cycle_window,
                                     describe_net, iter_periodic_cycles,
                                     random_rule_net, rule_net_stream,
                                     run_all, run_suite)

# The draw helpers as they were when each drawn point was hashed twice (by
# ``space.contains`` and by its set): the oracle the draws that hash each
# point once must match draw for draw, bit for bit.

def oracle_random_included_point(rng, space):
    while True:
        p = theoremlab.random_point(rng, space.dim)
        if space.contains(p):
            return p


def oracle_random_sets(rng, space, count, min_size):
    return [frozenset(oracle_random_included_point(rng, space)
                      for _ in range(rng.randint(min_size, 2)))
            for _ in range(count)]


def oracle_random_rule_net(rng, family, nonempty=False):
    min_size = 1 if nonempty else 0
    for _ in range(64):
        try:
            if family == "trap":
                dim = rng.choice((1, 2))
                a = theoremlab.random_point(rng, dim)
                space = RationalPointSpace(dim, frozenset((a,)))
                b = oracle_random_included_point(rng, space)
                r = rng.choice(theoremlab.GEOMETRIC_RATIOS)
                pre = oracle_random_sets(rng, space, rng.randint(0, 2),
                                         min_size)
                return SubsetNet.over_znn(space, pre,
                                          GeometricConverge(a, b, r))
            space = theoremlab.random_space(rng)
            pre = oracle_random_sets(rng, space, rng.randint(0, 2), min_size)
            if family == "periodic":
                cycle = oracle_random_sets(rng, space, rng.randint(1, 3),
                                           min_size)
                return SubsetNet.over_znn(space, pre, Periodic(tuple(cycle)))
            if family == "affine":
                c = oracle_random_included_point(rng, space)
                v = tuple(rng.choice(theoremlab.ESCAPE_STEPS)
                          for _ in range(space.dim))
                return SubsetNet.over_znn(space, pre, AffineEscape(c, v))
            if family == "geometric":
                a = oracle_random_included_point(rng, space)
                b = oracle_random_included_point(rng, space)
                r = rng.choice(theoremlab.GEOMETRIC_RATIOS)
                return SubsetNet.over_znn(space, pre,
                                          GeometricConverge(a, b, r))
            raise ValueError(f"unknown family: {family}")
        except LimitsetError:
            continue  # tail crossed an excluded point; redraw
    raise RuntimeError("could not draw a valid instance")


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
            elif net.index is ZNN:
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
        # the rational implications are rows of pseudometrizable_equivalence
        assert calls["rational"] == 0

    @pytest.mark.parametrize("suite", ["compactness_equivalences",
                                       "sequential_limits"])
    def test_a_failing_cycle_is_reported_per_derived_net(self, suite,
                                                         monkeypatch):
        # D2 is Hausdorff, so sequential_limits sweeps it too
        rows = discrete_space(2).rows
        real = theoremlab.is_limit_set_compact
        asked = []

        def failing_on_d2(net):
            if (not net.ground.rational and net.index is ZNN
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
            flip = (not net.ground.rational and net.index is ZNN
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

    def test_trap_quota_counts_real_traps(self, monkeypatch):
        # trap draws that come back as geometric nets whose limit point the
        # space includes are not traps, so the quota must fail
        real = theoremlab.random_rule_net

        def no_traps(rng, family, nonempty=False):
            return real(rng, "geometric" if family == "trap" else family,
                        nonempty)

        monkeypatch.setattr(theoremlab, "random_rule_net", no_traps)
        report = run_suite("pseudometrizable_equivalence", budget=40, seed=42)
        assert report.violations == [{"instance": "trap quota",
                                      "expected": ">= 4 excluded-limit traps",
                                      "got": "0"}]

    @pytest.mark.parametrize("name,verdict,expected", [
        ("limit_set", lambda net: frozenset(),
         "nonempty limit set under Lagrange stability"),
        ("converges_from_above", lambda net, a: False,
         "converges from above to L under Lagrange stability"),
        ("is_asymptotically_seq_compact", lambda net: False,
         "asymptotically seq compact under Lagrange stability"),
        ("is_limit_set_compact", lambda net: False,
         "limit set compact under Lagrange stability"),
        ("is_weakly_asymptotically_seq_compact", lambda net: True,
         "weak asymptotic compactness forces convergence from above to L"),
        ("is_limit_set_compact", lambda net: True,
         "all four verdicts fail on an excluded-limit trap"),
    ], ids=["R2", "R3", "R4", "R5", "R6", "R7"])
    def test_every_row_fires(self, name, verdict, expected, monkeypatch):
        # each row of the table is reported, with its own text, once a
        # verdict it reads is broken
        assert run_suite("pseudometrizable_equivalence", 40, 42).passed
        monkeypatch.setattr(theoremlab, name, verdict)
        report = run_suite("pseudometrizable_equivalence", budget=40, seed=42)
        assert expected in {v["expected"] for v in report.violations}

    @pytest.mark.parametrize("budget,seed,violations",
                             [(200, 7, 50), (1000, 42, 247)])
    def test_lost_as_not_recurs_control(self, budget, seed, violations,
                                        monkeypatch):
        # a convergent geometric tail read as lost keeps its limit set, so
        # limit set compactness parts from the other three verdicts
        monkeypatch.setattr(TailSummary, "lost",
                            property(lambda summary: not summary.recurs))
        report = run_suite("pseudometrizable_equivalence", budget, seed)
        assert len(report.violations) == violations
        assert {v["expected"] for v in report.violations} == {
            "all four verdicts equal"}


def iter_periodic_nets(space, max_cycle=2, max_pre=2, nonempty=False):
    """Every periodic net over ``space`` with cycle <= max_cycle and
    preperiod <= max_pre, cycle-major: ``iter_periodic_cycles`` flattened,
    each net derived from its cycle's base net."""
    for base, pres in iter_periodic_cycles(space, max_cycle, max_pre,
                                           nonempty):
        for pre in pres:
            yield base.with_preperiod(pre)


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

    @pytest.mark.parametrize("pre, cycle", [
        # X_12 and X_13 were preperiod values: the window read 0b100
        ([0b100] * 14, (0b001, 0b010)),
        # 13 unrolled values cannot hold 15: the slice wrapped to X_11, X_12
        ((), (0b010,) + (0b001,) * 14)])
    def test_the_window_is_a_whole_cycle_past_horizon_12(self, pre, cycle):
        net = SubsetNet.over_znn(discrete_space(3), pre, Periodic(cycle))
        assert cycle_window(net) == 0b11


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

    def test_generated_spaces_keep_their_excluded_frozenset(self,
                                                           monkeypatch):
        # the generators hand RationalPointSpace a frozenset of canonical
        # points, which it keeps without hashing the points again
        real = theoremlab.RationalPointSpace
        kept = []

        def space(dim, excluded=()):
            made = real(dim, excluded)
            kept.append(made.excluded is excluded)
            return made

        monkeypatch.setattr(theoremlab, "RationalPointSpace", space)
        rng = random.Random(1)
        for family in theoremlab.RULE_FAMILIES:
            for _ in range(10):
                theoremlab.random_rule_net(rng, family)
        assert len(kept) >= 40 and all(kept)

    def test_the_kernel_matches_choice_and_randint_bit_for_bit(self):
        # every sequence the generators pick from against Random.choice,
        # every interned range against the randint it stands for
        seqs = [theoremlab.DIMS, theoremlab.UP_TO_TWO, theoremlab.COORDS,
                theoremlab.ESCAPE_STEPS, theoremlab.GEOMETRIC_RATIOS,
                *theoremlab.COORDS]
        assert [len(seq) for seq in seqs] == [2, 3, 4, 6, 10, 17, 33, 65, 129]
        cases = [(seq, lambda twin, seq=seq: twin.choice(seq))
                 for seq in seqs]
        cases += [
            (theoremlab.UP_TO_TWO, lambda twin: twin.randint(0, 2)),
            (theoremlab.SET_SIZES[1], lambda twin: twin.randint(1, 2)),
            (theoremlab.ONE_TO_THREE, lambda twin: twin.randint(1, 3))]
        assert theoremlab.SET_SIZES[0] is theoremlab.UP_TO_TWO
        for seq, reference in cases:
            for seed in range(200):
                rng, twin = random.Random(seed), random.Random(seed)
                for _ in range(50):
                    assert theoremlab._pick(rng, seq) == reference(twin)
                    assert rng.getstate() == twin.getstate()

    def test_interned_draws_match_randint_bit_for_bit(self):
        # the reference route: a denominator, then randint over its range
        def reference_point(rng, dim):
            coords = []
            for _ in range(dim):
                q = rng.choice(theoremlab.COORD_DENOMS)
                coords.append(F(rng.randint(-8 * q, 8 * q), q))
            return tuple(coords)

        interned = {id(c) for row in theoremlab.COORDS for c in row}
        assert len(interned) == 17 + 33 + 65 + 129
        for seed in range(200):
            for dim in (1, 2):
                rng, twin = random.Random(seed), random.Random(seed)
                for _ in range(5):
                    got = theoremlab.random_point(rng, dim)
                    assert got == reference_point(twin, dim)
                    assert type(got) is tuple and len(got) == dim
                    assert all(type(c) is F and id(c) in interned
                               for c in got)
                assert rng.getstate() == twin.getstate()

    def test_draws_match_the_twice_hashing_oracle(self):
        # same nets, same labels and summaries, same bits consumed
        for seed, nonempty, family in product(
                range(50), (False, True), theoremlab.RULE_FAMILIES):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(40):
                got = random_rule_net(rng, family, nonempty)
                want = oracle_random_rule_net(twin, family, nonempty)
                assert describe_net(got) == describe_net(want)
                assert got.summary == want.summary
                assert rng.getstate() == twin.getstate()

    def test_drawn_sets_hash_each_coordinate_once(self, monkeypatch):
        # each point drawn for a set is hashed once, for its singleton,
        # whether the exclusion test keeps it or rejects it
        space = RationalPointSpace(1, [(F(0),), (F(1),)])
        real_point, drawn, calls = theoremlab.random_point, [], []
        fraction_hash = F.__hash__

        def recording(rng, dim):
            drawn.append(real_point(rng, dim))
            return drawn[-1]

        def counting(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(theoremlab, "random_point", recording)
        monkeypatch.setattr(F, "__hash__", counting)
        sets = theoremlab._random_sets(random.Random(3), space, 400, 1)
        monkeypatch.undo()
        assert len(calls) == len(drawn)
        kept = [p for p in drawn if space.contains(p)]
        assert len(kept) < len(drawn)  # some draws were rejected
        assert frozenset().union(*sets) == frozenset(kept)

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
