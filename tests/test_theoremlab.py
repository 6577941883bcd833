import random
from itertools import product

import pytest

from limitset_lab import theoremlab
from limitset_lab.errors import LimitsetError
from limitset_lab.finite_topology import enumerate_spaces
from limitset_lab.subset_nets import Periodic, SubsetNet
from limitset_lab.theoremlab import (EXHIBIT_CAP, SUITES, describe_net,
                                     iter_periodic_nets, random_rule_net,
                                     report_to_dict, rule_net_stream,
                                     run_all, run_suite)


class TestSuiteMachinery:
    def test_unknown_suite_rejected(self):
        with pytest.raises(LimitsetError):
            run_suite("no_such_suite")

    def test_all_suites_pass_at_small_budget(self):
        for report in run_all(budget=60, seed=42):
            assert report.passed, (report.suite, report.violations[:3])
            assert report.instances > 0

    def test_reports_are_deterministic(self):
        for name in SUITES:
            first = report_to_dict(run_suite(name, budget=40, seed=7))
            second = report_to_dict(run_suite(name, budget=40, seed=7))
            assert first == second

    def test_seed_changes_random_instances(self):
        a = run_suite("kuratowski_equality", budget=25, seed=1)
        b = run_suite("kuratowski_equality", budget=25, seed=2)
        assert a.passed and b.passed  # different instances, same outcome

    def test_elapsed_excluded_from_canonical_dict(self):
        report = run_suite("kuratowski_equality", budget=10, seed=3)
        d = report_to_dict(report)
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
