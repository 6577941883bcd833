"""Acceptance criteria, one test per criterion, run at the stated budgets.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  Time bounds are asserted with ``perf_counter``.
"""

import hashlib
import random
import time
from fractions import Fraction as F
from itertools import product

from limitset_lab import cli
from limitset_lab.finite_topology import (enumerate_spaces, is_pseudometrizable,
                                          is_regular)
from limitset_lab.pseudometric_core import (FinitePseudoMetric,
                                            compact_inner_radius)
from limitset_lab.semiflow_cells import (CellGrid, DiscreteSemiflow,
                                         attraction_trace_check,
                                         omega_limit_cells)
from limitset_lab.setvalued_maps import (SetValuedMap, is_lsc_at,
                                         lsc_via_semidistance)
from limitset_lab.subset_nets import (SubsetNet, below_iff_semidistance,
                                      converges_from_above, limit_set,
                                      limit_set_horizon_oracle,
                                      semidistance_convergence_check)
from limitset_lab.theoremlab import (RULE_FAMILIES, iter_directed_posets,
                                     random_rule_net, run_suite)

from test_setvalued_maps import zero_one_metrics
from test_theoremlab import iter_periodic_nets


def report(number, ok, elapsed, bound, label):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s / {bound}s): {label}")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s: {elapsed:.1f}s"


def test_acceptance_1_limit_set_oracle_equivalence():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for n in (1, 2, 3):
        for space in enumerate_spaces(n):
            for net in iter_periodic_nets(space, max_cycle=2, max_pre=2):
                checked += 1
                if limit_set(net) != limit_set_horizon_oracle(net):
                    violations += 1
    posets = list(iter_directed_posets(4))
    assert len(posets) == 88
    grounds_small = [s for n in (1, 2) for s in enumerate_spaces(n)]
    for order in posets:
        for space in grounds_small:
            for assignment in product(range(1 << space.n), repeat=order.n):
                checked += 1
                net = SubsetNet.over_finite(space, order, assignment)
                if limit_set(net) != limit_set_horizon_oracle(net):
                    violations += 1
    rng = random.Random(42)
    grounds3 = list(enumerate_spaces(3))
    for _ in range(2000):
        order = rng.choice(posets)
        space = rng.choice(grounds3)
        assignment = [rng.randrange(1 << space.n) for _ in range(order.n)]
        net = SubsetNet.over_finite(space, order, assignment)
        checked += 1
        if limit_set(net) != limit_set_horizon_oracle(net):
            violations += 1
    elapsed = time.perf_counter() - start
    report(1, violations == 0, elapsed, 60,
           f"limit_set = horizon oracle on {checked} exhaustive instances")


def test_acceptance_2_kuratowski_equality():
    start = time.perf_counter()
    r = run_suite("kuratowski_equality", budget=1000, seed=42)
    elapsed = time.perf_counter() - start
    ok = r.passed and r.instances == 1000
    report(2, ok, elapsed, 10,
           "limit_set = Kuratowski Limsup on 1000 random rule nets")


def test_acceptance_3_four_way_equivalence():
    start = time.perf_counter()
    r = run_suite("pseudometrizable_equivalence", budget=1000, seed=42)
    elapsed = time.perf_counter() - start
    # the suite itself enforces the >= 100 excluded-limit trap quota
    ok = r.passed
    report(3, ok, elapsed, 30,
           "four compactness verdicts agree on 1000 nets (>= 100 traps)")


def test_acceptance_4_separation_containments():
    start = time.perf_counter()
    r = run_suite("separation_containments", budget=1000, seed=42)
    elapsed = time.perf_counter() - start
    ok = r.passed and r.exhibit_count > 0 and len(r.exhibits) > 0
    report(4, ok, elapsed, 120,
           f"Hausdorff/regular sweeps clean; {r.exhibit_count} non-regular "
           "exhibits emitted")


def test_acceptance_5_semidistance_criteria():
    start = time.perf_counter()
    violations = 0
    rng = random.Random("acceptance-5")
    for i in range(1000):
        net = random_rule_net(rng, RULE_FAMILIES[i % 4])
        candidates = [limit_set(net)]
        zero = (F(0),) * net.ground.dim
        if net.ground.contains(zero):
            candidates.append(frozenset([zero]))
        for k in candidates:
            k = frozenset(p for p in k if net.ground.contains(p))
            if not k:
                continue
            above = converges_from_above(net, k)
            above_d = semidistance_convergence_check(net, k)
            if above != above_d:
                violations += 1
            below, below_d = below_iff_semidistance(net, k)
            if below != below_d:
                violations += 1
    rng2 = random.Random("acceptance-5-metrics")
    for _ in range(1000):
        pts = [(F(rng2.randint(-8, 8), rng2.choice((1, 2, 4))),
                F(rng2.randint(-8, 8), rng2.choice((1, 2, 4))))
               for _ in range(rng2.randint(1, 6))]
        m = FinitePseudoMetric.from_points(pts)
        u = rng2.choice(m.open_sets())
        if u == 0:
            u = m.full_mask
        k = 0
        for i in range(m.n):
            if u >> i & 1 and rng2.random() < 0.5:
                k |= 1 << i
        if k == 0:
            k = u & -u
        delta = compact_inner_radius(m, k, u)
        ball = sum(1 << y for y in range(m.n)
                   if m.point_to_mask_distance(y, k) < delta)
        if delta <= 0 or ball & ~u:
            violations += 1
    elapsed = time.perf_counter() - start
    report(5, violations == 0, elapsed, 10,
           "semi-distance criteria and inner-radius postcondition on "
           "2000 random instances")


def test_acceptance_6_semicontinuity_oracles():
    start = time.perf_counter()
    violations = 0
    checked = 0
    doms = [m for n in (1, 2, 3, 4) for m in zero_one_metrics(n)]
    cods = [m for n in (1, 2, 3) for m in zero_one_metrics(n)]
    for dom in doms:
        for cod in cods:
            for graph in product(range(1 << cod.n), repeat=dom.n):
                f = SetValuedMap(dom, cod, graph)
                for x in range(dom.n):
                    if graph[x] == 0:
                        continue  # the criterion needs a nonempty value
                    checked += 1
                    if lsc_via_semidistance(f, x) != is_lsc_at(f, x):
                        violations += 1
    regular_checked = 0
    for n in (1, 2, 3, 4):
        for space in enumerate_spaces(n):
            regular_checked += 1
            if is_regular(space) != is_pseudometrizable(space):
                violations += 1
    elapsed = time.perf_counter() - start
    # the sweep size is pinned so a change of representation cannot shrink it
    ok = violations == 0 and checked == 1_135_086 and regular_checked == 389
    report(6, ok, elapsed, 120,
           f"lsc criterion = definition on {checked} instances; regularity = "
           f"symmetric criterion on {regular_checked} topologies")


def test_acceptance_7_omega_limits():
    label = []
    ok = True
    start = time.perf_counter()
    grid = CellGrid(1, 64)
    logistic = DiscreteSemiflow("logistic", (2,))
    res = omega_limit_cells(grid, logistic, grid.full_mask)
    logistic_elapsed = time.perf_counter() - start
    omega_cells = {i for i in range(64) if res.omega >> i & 1}
    # the invariant endpoints x=0 (fixed) and x=1 (maps to 0) pin their
    # cells into every image of the full box; they are the documented
    # artifact and excluded from the attractor-locality assertion
    core = omega_cells - {0, 63}
    near_half = set(range(30, 35))  # within 2 cells of x = 0.5
    ok &= bool(core) and core <= near_half
    ok &= attraction_trace_check(res)
    ok &= logistic_elapsed < 5
    label.append(f"logistic omega={sorted(omega_cells)}")

    start2 = time.perf_counter()
    grid8 = CellGrid(1, 8)
    rotation = DiscreteSemiflow("rotation", (F(1, 8),))
    res8 = omega_limit_cells(grid8, rotation, 1)
    rotation_elapsed = time.perf_counter() - start2
    ok &= res8.omega == grid8.full_mask and res8.period == 8
    ok &= attraction_trace_check(res8)
    ok &= dict(res8.trace)[res8.preperiod] == 0
    ok &= rotation_elapsed < 5
    label.append("rotation fills all 8 cells with period 8")
    report(7, ok, max(logistic_elapsed, rotation_elapsed), 5,
           "; ".join(label))


# sha256 of the canonical `verify --suite all --budget 1000 --seed 42` report
VERIFY_ALL_SEED42_SHA256 = (
    "b0bd9641913b45ab3c50362a04be54df5871bf6fed21ae4514be414cffc7aaa2")


def test_acceptance_8_determinism(tmp_path):
    start = time.perf_counter()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "all", "--budget", "1000", "--seed", "42"]
    code_a = cli.run(argv + ["--out", str(a)])
    code_b = cli.run(argv + ["--out", str(b)])
    elapsed = time.perf_counter() - start
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    ok &= hashlib.sha256(a.read_bytes()).hexdigest() == VERIFY_ALL_SEED42_SHA256
    report(8, ok, elapsed, 600,
           "two `verify --suite all --seed 42` runs byte-identical, exit 0, "
           "report matches the pinned sha256")
