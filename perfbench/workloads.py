"""The four benchmark workloads: inputs drawn from a seed, items, checks.

Each ``build_<name>(lab, seed, workdir)`` draws its inputs with the
benchmark's own ``random.Random`` and returns a ``Workload``.  The library
only ever sees the generated inputs (argv lists, JSON files, metric and map
objects).  An item is a ``(run, check)`` pair: ``run`` is the timed call into
the library, ``check`` turns its raw result into ``(output bytes, ok,
counted items)`` outside the timed region.  Outputs are canonical, so their
sha256 digest changes only when the program's answers change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple

Item = Tuple[Callable[[], object], Callable[[object], Tuple[bytes, bool, int]]]


@dataclass
class Workload:
    items: List[Item]
    # True: few, unequal items whose mix must not depend on where the clock
    # runs out, so runs stop only between whole passes and one latency
    # sample is one pass.  False: many shuffled items; the run may stop
    # after any item and each item is a latency sample.
    whole_passes: bool
    # per-layer figures read off the first pass's outputs (verify only)
    extras: Callable[[List[bytes]], dict] = field(default=lambda outs: {})


def _cli(lab, argv: List[str]) -> Tuple[int, str]:
    """One in-process ``cli.run`` call with both streams captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = lab.cli.run(argv)
    return code, buf.getvalue()


# -- verify ----------------------------------------------------------------------

# ``sequential_limits`` is left out: for about one seed in five it exits 2
# ("escape tail hits excluded point"), because it rebuilds singleton nets
# without their preperiod and ``SubsetNet.over_znn`` rejects a tail that hits
# an excluded point.  Put it back here once the suite is fixed.
VERIFY_SUITES = ("limit_set_characterization", "kuratowski_equality",
                 "separation_containments", "compactness_equivalences",
                 "pseudometrizable_equivalence")


def build_verify(lab, seed: int, workdir) -> Workload:
    """``verify --budget 1000 --seed SEED``, one command per suite.

    The five commands do the work of ``--suite all`` but for
    ``sequential_limits``, and their summed time is one latency sample.
    """
    items = []
    for suite in VERIFY_SUITES:
        out = workdir / f"verify-{suite}.json"
        argv = ["verify", "--suite", suite, "--budget", "1000",
                "--seed", str(seed), "--out", str(out)]
        items.append((lambda argv=argv: _cli(lab, argv), _verify_check(out)))
    return Workload(items, whole_passes=True, extras=_exhibit_ratio)


def _verify_check(out):
    def check(raw):
        code, text = raw
        if not out.exists():
            return text.encode(), False, 0
        data = out.read_bytes()
        out.unlink()
        (suite,) = json.loads(data)["suites"]
        return data, code == 0 and suite["passed"], suite["instances"]
    return check


def _exhibit_ratio(outputs) -> dict:
    built = kept = 0
    for data in outputs:
        if data.startswith(b"{"):
            (suite,) = json.loads(data)["suites"]
            built += suite["exhibit_count"]
            kept += len(suite["exhibits"])
    return {"theoremlab.exhibit_kept_ratio": kept / built if built else 0.0}


# -- omega -----------------------------------------------------------------------

# (map, params, cells per axis, dimension, extra argv): a long 1-D iteration,
# the 2-D path, and the sampled-and-dilated outer cover.
OMEGA_CONFIGS = (
    ("logistic", ("39/10",), 4096, 1, []),
    ("henon", ("7/5", "3/10"), 64, 2, []),
    ("logistic", ("39/10",), 1024, 1, ["--samples", "8", "--dilate"]),
)


def _omega_argv(kind, params, cells, init, extra, out) -> List[str]:
    argv = ["omega", "--map", kind, "--param", params[0]]
    if len(params) > 1:
        argv += ["--param2", params[1]]
    return argv + ["--cells", str(cells), "--init", init] + extra + \
        ["--out", str(out)]


def _omega_check(out, expect_rows: bool = True):
    """Check one ``omega`` run: summary, attraction trace and CSV length."""
    def check(raw):
        code, summary_text = raw
        csv_bytes = out.read_bytes()
        summary = json.loads(summary_text)
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
        n = len(rows) - 1
        ok = (code == 0 and rows[0] == ["n", "cells", "distance"]
              and summary["attraction_trace_zero_from_preperiod"] is True
              and n == summary["preperiod"] + summary["period"]
              and isinstance(summary["omega"], list))
        return csv_bytes + summary_text.encode(), ok, n if expect_rows else 1
    return check


def build_omega(lab, seed: int, workdir) -> Workload:
    rng = random.Random(f"omega:{seed}")
    items = []
    for i, (kind, params, cells, dim, extra) in enumerate(OMEGA_CONFIGS):
        total = cells ** dim
        # cell 0 is always drawn: without it (and without the last cell) the
        # dilated logistic run settles on a different, 6x dearer attractor,
        # and which one a seed hit would swamp every other difference
        half = [0] + sorted(rng.sample(range(1, total), total // 2 - 1))
        init = "cells:" + ",".join(map(str, half))
        out = workdir / f"omega{i}.csv"
        argv = _omega_argv(kind, params, cells, init, extra, out)
        items.append((lambda argv=argv: _cli(lab, argv), _omega_check(out)))
    return Workload(items, whole_passes=True)


# -- semicontinuity --------------------------------------------------------------

SEMI_CHECKS = 10_000
LATTICE = (Fraction(0), Fraction(1, 2), Fraction(1))


def _lattice_points(rng: random.Random, dim: int) -> list:
    return [tuple(rng.choice(LATTICE) for _ in range(dim))
            for _ in range(rng.randint(1, 5))]


def build_semicontinuity(lab, seed: int, workdir) -> Workload:
    """Random set-valued maps between small lattice pseudo-metrics.

    Points repeat on the coarse lattice, so zero distances and non-discrete
    topologies are common.  One item checks one nonempty-valued point with
    the brute-force lsc oracle, the semi-distance criterion and usc.
    """
    rng = random.Random(f"semicontinuity:{seed}")
    pm, sv = lab.pseudometric_core, lab.setvalued_maps
    checks = []
    while len(checks) < SEMI_CHECKS:
        dom = pm.FinitePseudoMetric.from_points(
            _lattice_points(rng, rng.choice((1, 2))))
        cod = pm.FinitePseudoMetric.from_points(
            _lattice_points(rng, rng.choice((1, 2))))
        graph = tuple(rng.randrange(1 << cod.n) for _ in range(dom.n))
        f = sv.SetValuedMap(dom, cod, graph)
        checks += [(f, x) for x in range(dom.n) if graph[x]]
    rng.shuffle(checks)

    def item(f, x):
        def run():
            return (sv.is_lsc_at(f, x), sv.lsc_via_semidistance(f, x),
                    sv.is_usc_at(f, x))
        return run, _semi_check
    return Workload([item(f, x) for f, x in checks], whole_passes=False)


def _semi_check(raw):
    lsc, via, usc = raw
    return bytes((48 + lsc, 48 + via, 48 + usc)), lsc == via, 1


# -- requests --------------------------------------------------------------------

REQUESTS = 2000
REUSE = 16  # requests per net or space input file
ANALYSIS_KEYS = {"limit_set", "limit_set_compact", "asympt_seq_compact",
                 "weakly_asympt_seq_compact", "lagrange_stable",
                 "converges_above_to_limit", "horizon"}
SPACE_PROPS = ("hausdorff", "regular", "pseudometrizable")
COORD_DENOMS = (1, 2, 4, 8)
RATIOS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3),
          Fraction(-3, 4), Fraction(3, 4))
STEPS = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))


def _q(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _dyadic(rng: random.Random, dim: int) -> tuple:
    out = []
    for _ in range(dim):
        d = rng.choice(COORD_DENOMS)
        out.append(Fraction(rng.randint(-4 * d, 4 * d), d))
    return tuple(out)


def _sevenths(rng: random.Random, dim: int) -> tuple:
    """A point with a coordinate of denominator 7.

    Dyadic preperiods, affine tails c + n*v and geometric tails with the
    ratios above have denominators 2^i 3^j, so they never land on such a
    point: the drawn nets are valid without consulting the library.
    """
    p = list(_dyadic(rng, dim))
    p[rng.randrange(dim)] = Fraction(7 * rng.randint(-3, 3) + rng.randint(1, 6), 7)
    return tuple(p)


def _points_json(points) -> list:
    return [[_q(c) for c in p] for p in points]


def _dyadic_sets(rng, dim, count, avoid=()) -> list:
    sets = []
    for _ in range(count):
        pts = {_dyadic(rng, dim) for _ in range(rng.randint(0, 2))} - set(avoid)
        sets.append(_points_json(sorted(pts)))
    return sets


def _rule_net(rng: random.Random, family: str) -> dict:
    dim = rng.choice((1, 2))
    excluded = [_sevenths(rng, dim) for _ in range(rng.randint(0, 2))]
    avoid = ()
    if family == "periodic":
        tail = {"kind": "periodic",
                "cycle": _dyadic_sets(rng, dim, rng.randint(1, 3))}
    elif family == "affine":
        v = (0,) * dim
        while not any(v):
            v = tuple(rng.choice(STEPS + (Fraction(0),)) for _ in range(dim))
        tail = {"kind": "affine", "c": _points_json([_dyadic(rng, dim)])[0],
                "v": _points_json([v])[0]}
    else:
        a = _dyadic(rng, dim)
        b = a
        while b == a:
            b = _dyadic(rng, dim)
        tail = {"kind": "geometric", "a": _points_json([a])[0],
                "b": _points_json([b])[0], "r": _q(rng.choice(RATIOS))}
        if family == "trap":
            excluded.append(a)
            avoid = (a,)
    return {"ground": {"dim": dim, "excluded": _points_json(excluded)},
            "index": {"kind": "znn"},
            "preperiod": _dyadic_sets(rng, dim, rng.randint(0, 3), avoid),
            "tail": tail}


def _random_preorder(rng: random.Random, n: int, p: float) -> List[int]:
    """Reflexive-transitive closure of a random relation, as row bitmasks."""
    rows = [1 << x | sum(1 << y for y in range(n) if rng.random() < p)
            for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = rows[x]
            for y in range(n):
                if rows[x] >> y & 1:
                    reach |= rows[y]
            if reach != rows[x]:
                rows[x], changed = reach, True
    return rows


def _matrix(rows: List[int], n: int) -> list:
    return [[bool(r >> y & 1) for y in range(n)] for r in rows]


def _mask_list(rng: random.Random, n: int) -> list:
    return [y for y in range(n) if rng.random() < 0.5]


def _finite_net(rng: random.Random) -> dict:
    n = rng.randint(2, 4)
    space = {"n": n, "spec": _matrix(_random_preorder(rng, n, 0.3), n)}
    if rng.random() < 0.5:
        return {"ground": space, "index": {"kind": "znn"},
                "preperiod": [_mask_list(rng, n) for _ in range(rng.randint(0, 2))],
                "tail": {"kind": "periodic",
                         "cycle": [_mask_list(rng, n)
                                   for _ in range(rng.randint(1, 3))]}}
    k = rng.randint(1, 4)
    # a random preorder on k-1 elements under a new top element is directed;
    # a random relabelling moves the top around
    below = _random_preorder(rng, k - 1, 0.3)
    rows = [r | 1 << (k - 1) for r in below] + [1 << (k - 1)]
    perm = list(range(k))
    rng.shuffle(perm)
    order = [0] * k
    for a in range(k):
        order[perm[a]] = sum(1 << perm[b] for b in range(k) if rows[a] >> b & 1)
    return {"ground": space, "index": {"kind": "finite", "rel": _matrix(order, k)},
            "assignment": [_mask_list(rng, n) for _ in range(k)]}


def _omega_request(rng: random.Random, workdir, i: int) -> List[str]:
    """A small omega request.

    Grids up to 64 cells start from every kind of initial set; the 128 and
    256 cell grids start from one cell.  Cell tables stay at 32 cells or
    fewer.  This keeps these requests well below the heavy ones.
    """
    cells = rng.choice((16, 32, 64, 128, 256))
    large = cells > 64
    kind = rng.choice(("logistic", "tent", "rotation", "rotation") +
                      (() if cells > 32 else ("table",)))
    infile = []
    if kind == "logistic":
        param = f"{rng.randint(280, 400)}/100"
    elif kind == "tent":
        param = f"{rng.randint(100, 200)}/100"
    elif kind == "rotation":
        # k/cells is an exact cell shift; k/(3*cells) with 3 not dividing k
        # goes through the sampled path
        k = rng.randrange(1, cells)
        param = f"{k}/{cells}" if rng.random() < 0.5 else \
            f"{3 * k + rng.randint(1, 2)}/{3 * cells}"
    else:
        param = None
        table = workdir / f"table{i}.json"
        table.write_text(json.dumps(
            [sorted({rng.randrange(cells) for _ in range(rng.randint(1, 2))})
             for _ in range(cells)]))
        infile = ["--in", str(table)]
    roll = 0.5 if large else rng.random()
    init = "all" if roll < 0.4 else f"cell:{rng.randrange(cells)}" if roll < 0.7 \
        else "cells:" + ",".join(map(str, sorted(rng.sample(range(cells), cells // 4))))
    argv = ["omega", "--map", kind] + (["--param", param] if param else []) + \
        ["--cells", str(cells), "--init", init] + infile
    if not large and kind != "table" and rng.random() < 0.25:
        argv += ["--samples", "2"]
    return argv + ["--out", str(workdir / "out.csv")]


def _json_check(out, keys):
    def check(raw):
        code, _ = raw
        data = out.read_bytes()
        return data, code == 0 and set(json.loads(data)) == keys, 1
    return check


def _heavy_omega_request(rng: random.Random, i: int, out) -> List[str]:
    """A 256-cell omega run from a random half of the grid.

    These carry the latency tail.  From a random half, the two maps settle
    on attractors of nearly the same size whatever the half, so the tail is
    a property of the request class and not of the seed's luckiest draw.
    """
    kind, param = (("logistic", "39/10"), ("tent", "3/2"))[i % 2]
    half = sorted(rng.sample(range(256), 128))
    return ["omega", "--map", kind, "--param", param, "--cells", "256",
            "--init", "cells:" + ",".join(map(str, half)), "--out", str(out)]


def build_requests(lab, seed: int, workdir) -> Workload:
    """A closed loop of one client: cli requests over files written here.

    Exact shares, in shuffled order: 60% ``net analyze`` (rule nets of all
    four families and nets over finite spaces, one file per 16 requests),
    20% ``space check`` on 4-5 point topologies (likewise), 18.5% ``omega``
    on grids of at most 256 cells and 1.5% heavy 256-cell ``omega`` runs.
    Fixed shares keep the mix, and with it every percentile, the same for
    every seed; the seed draws the inputs.
    """
    rng = random.Random(f"requests:{seed}")
    out_json, out_csv = workdir / "out.json", workdir / "out.csv"
    n_net, n_space, n_heavy = REQUESTS * 60 // 100, REQUESTS * 20 // 100, \
        REQUESTS * 15 // 1000
    kinds = ["net"] * n_net + ["space"] * n_space + ["heavy"] * n_heavy
    kinds += ["omega"] * (REQUESTS - len(kinds))
    rng.shuffle(kinds)
    families = ("periodic", "affine", "geometric", "trap", "finite")
    nets, spaces = [], []
    for j in range(n_net // REUSE):
        family = families[j % len(families)]
        nets.append(workdir / f"net{j}.json")
        nets[-1].write_text(json.dumps(
            _finite_net(rng) if family == "finite" else _rule_net(rng, family)))
    for j in range(n_space // REUSE):
        n = rng.randint(4, 5)
        spaces.append(workdir / f"space{j}.json")
        spaces[-1].write_text(json.dumps(
            {"n": n, "spec": _matrix(_random_preorder(rng, n, 0.25), n)}))
    items = []
    counts = {"net": 0, "space": 0, "heavy": 0}
    for i, kind in enumerate(kinds):
        k = counts.get(kind, 0)
        counts[kind] = k + 1
        if kind == "net":
            argv = ["net", "analyze", "--in", str(nets[k % len(nets)]),
                    "--horizon", str(rng.choice((16, 64))), "--out", str(out_json)]
            check = _json_check(out_json, ANALYSIS_KEYS)
        elif kind == "space":
            argv = ["space", "check", "--props", ",".join(SPACE_PROPS),
                    "--in", str(spaces[k % len(spaces)]), "--out", str(out_json)]
            check = _json_check(out_json, set(SPACE_PROPS))
        else:
            argv = _heavy_omega_request(rng, k, out_csv) if kind == "heavy" \
                else _omega_request(rng, workdir, i)
            check = _omega_check(out_csv, expect_rows=False)
        items.append((lambda argv=argv: _cli(lab, argv), check))
    return Workload(items, whole_passes=False)


BUILD = {
    "verify": build_verify,
    "omega": build_omega,
    "semicontinuity": build_semicontinuity,
    "requests": build_requests,
}
