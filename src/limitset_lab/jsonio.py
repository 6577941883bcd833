"""JSON encoding of every wire-visible structure; no other module reads or
writes JSON.

One canonical shape per type; every encoder of an input round-trips
through its decoder to an equal value.  Rationals travel as {"num", "den"}
string pairs, finite point sets as sorted index lists, rational point sets
as sorted coordinate lists.  Analyses, suite reports and the ``omega``
summary are output only; the first two read their dataclass's fields.  A
verdict is a bool, spelled ``{"state": "holds"}`` or ``{"state": "fails"}``.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .errors import MalformedInputError, excerpt
from .finite_topology import FiniteSpace
from .pseudometric_core import FinitePseudoMetric, RationalPointSpace
from .rationals import (fraction_from_json, fraction_to_json, point_from_json,
                        point_to_json)
from .semiflow_cells import (CellGrid, DiscreteSemiflow, OmegaResult,
                             attraction_trace_check, set_bits)
from .setvalued_maps import SetValuedMap
from .subset_nets import (ZNN, AffineEscape, GeometricConverge, NetAnalysis,
                          Periodic, SubsetNet)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str):
    """Parse a UTF-8 JSON file.  Bad syntax, non-UTF-8 bytes, nesting past
    the recursion limit and over-long int literals are malformed input."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError(f"{path}: {exc}") from exc


# -- net indices --------------------------------------------------------------

def order_to_json(order) -> dict:
    if order is ZNN:
        return {"kind": "znn"}
    return {"kind": "finite", "rel": order.matrix()}


def order_from_json(obj):
    """A net index: ``ZNN`` or a finite space whose preorder is ``rel``."""
    kind = _field(obj, "kind")
    if kind == "finite":
        return FiniteSpace.from_matrix(_relation(obj, "rel"))
    if kind == "znn":
        return ZNN
    raise MalformedInputError(f"unknown order kind: {excerpt(kind)}")


# -- ground spaces --------------------------------------------------------------

def finite_space_to_json(space: FiniteSpace) -> dict:
    return {"n": space.n, "spec": space.matrix()}


def finite_space_from_json(obj) -> FiniteSpace:
    space = FiniteSpace.from_matrix(_relation(obj, "spec"))
    if _field(obj, "n", int, space.n) != space.n:
        raise MalformedInputError("n does not match the spec matrix")
    return space


def rational_space_to_json(space: RationalPointSpace) -> dict:
    return {"dim": space.dim,
            "excluded": [point_to_json(p) for p in sorted(space.excluded)]}


def rational_space_from_json(obj) -> RationalPointSpace:
    return RationalPointSpace(_field(obj, "dim", int),
                              [point_from_json(p)
                               for p in _field(obj, "excluded", list, [])])


def metric_to_json(m: FinitePseudoMetric) -> dict:
    return {"n": m.n,
            "dist": [[fraction_to_json(d) for d in row] for row in m.dist]}


def metric_from_json(obj) -> FinitePseudoMetric:
    m = FinitePseudoMetric([[fraction_from_json(d) for d in row]
                            for row in _matrix(obj, "dist")])
    if _field(obj, "n", int, m.n) != m.n:
        raise MalformedInputError("n does not match the dist matrix")
    return m


def ground_to_json(ground) -> dict:
    if isinstance(ground, RationalPointSpace):
        return rational_space_to_json(ground)
    return _finite_ground_to_json(ground)


def ground_from_json(obj):
    if isinstance(obj, dict) and "dim" in obj:
        return rational_space_from_json(obj)
    return _finite_ground_from_json(obj)


def _finite_ground_to_json(ground) -> dict:
    if isinstance(ground, FinitePseudoMetric):  # a metric is a FiniteSpace too
        return metric_to_json(ground)
    if isinstance(ground, FiniteSpace):
        return finite_space_to_json(ground)
    raise MalformedInputError(f"unencodable ground: {ground!r}")


def _finite_ground_from_json(obj):
    if not isinstance(obj, dict):
        raise MalformedInputError("ground must be an object")
    if "spec" in obj:
        return finite_space_from_json(obj)
    if "dist" in obj:
        return metric_from_json(obj)
    raise MalformedInputError(
        "ground must carry 'spec' or 'dist' (finite), or 'dim' (Q^d, nets only)")


# -- point sets -------------------------------------------------------------------

def pointset_to_json(ground, s):
    if isinstance(ground, FiniteSpace):
        return [x for x in range(ground.n) if s >> x & 1]
    return [point_to_json(p) for p in sorted(s)]


def pointset_from_json(ground, obj):
    if not isinstance(obj, list):
        raise MalformedInputError("point set must be a list")
    if isinstance(ground, FiniteSpace):
        mask = 0
        for x in obj:
            if type(x) is not int or not 0 <= x < ground.n:
                raise MalformedInputError(
                    f"finite point sets hold indices below {ground.n}: {excerpt(x)}")
            mask |= 1 << x
        return mask
    return ground.check_set(point_from_json(p) for p in obj)


# -- nets ---------------------------------------------------------------------------

def tail_to_json(ground, tail) -> dict:
    if isinstance(tail, Periodic):
        return {"kind": "periodic",
                "cycle": [pointset_to_json(ground, s) for s in tail.cycle]}
    if isinstance(tail, AffineEscape):
        return {"kind": "affine", "c": point_to_json(tail.c),
                "v": point_to_json(tail.v)}
    if isinstance(tail, GeometricConverge):
        targets = tail.targets
        b = point_to_json(targets[0]) if len(targets) == 1 else \
            [point_to_json(t) for t in targets]
        return {"kind": "geometric", "a": point_to_json(tail.a),
                "b": b, "r": fraction_to_json(tail.r)}
    raise MalformedInputError(f"unencodable tail: {tail!r}")


def tail_from_json(ground, obj):
    kind = _field(obj, "kind")
    if kind == "periodic":
        return Periodic(tuple(pointset_from_json(ground, s)
                              for s in _field(obj, "cycle", list)))
    if kind == "affine":
        return AffineEscape(point_from_json(_field(obj, "c")),
                            point_from_json(_field(obj, "v")))
    if kind == "geometric":
        raw_b = _field(obj, "b", list)
        if raw_b and isinstance(raw_b[0], list):
            b = tuple(point_from_json(t) for t in raw_b)
        else:
            b = point_from_json(raw_b)
        return GeometricConverge(point_from_json(_field(obj, "a")), b,
                                 fraction_from_json(_field(obj, "r")))
    raise MalformedInputError(f"unknown tail kind: {excerpt(kind)}")


def net_to_json(net: SubsetNet) -> dict:
    out = {"ground": ground_to_json(net.ground),
           "index": order_to_json(net.index)}
    if net.is_znn:
        out["preperiod"] = [pointset_to_json(net.ground, s)
                            for s in net.preperiod]
        out["tail"] = tail_to_json(net.ground, net.tail)
    else:
        out["assignment"] = [pointset_to_json(net.ground, s)
                             for s in net.assignment]
    return out


def net_from_json(obj) -> SubsetNet:
    ground = ground_from_json(_field(obj, "ground"))
    index = order_from_json(obj.get("index", {"kind": "znn"}))
    if index is ZNN:
        pre = [pointset_from_json(ground, s)
               for s in _field(obj, "preperiod", list, [])]
        tail = tail_from_json(ground, _field(obj, "tail"))
        return SubsetNet.over_znn(ground, pre, tail)
    assignment = [pointset_from_json(ground, s)
                  for s in _field(obj, "assignment", list)]
    return SubsetNet.over_finite(ground, index, assignment)


# -- set-valued maps -----------------------------------------------------------------

def map_to_json(f: SetValuedMap) -> dict:
    graph = {str(x): [y for y in range(f.codomain.n) if f.graph[x] >> y & 1]
             for x in range(f.domain.n)}
    return {"domain": _finite_ground_to_json(f.domain),
            "codomain": _finite_ground_to_json(f.codomain),
            "graph": graph}


def map_from_json(obj) -> SetValuedMap:
    domain = _finite_ground_from_json(_field(obj, "domain"))
    codomain = _finite_ground_from_json(_field(obj, "codomain"))
    graph_obj = _field(obj, "graph", dict)
    graph = []
    for x in range(domain.n):
        ys = graph_obj.get(str(x))
        if ys is None:
            raise MalformedInputError(f"graph missing domain point {x}")
        graph.append(pointset_from_json(codomain, ys))
    return SetValuedMap(domain, codomain, tuple(graph))


# -- verdicts, analyses and reports ------------------------------------------------

def verdict_to_json(flag: bool) -> dict:
    return {"state": "holds" if flag else "fails"}


def analysis_to_json(ground, analysis: NetAnalysis) -> dict:
    """The limit set as a point set, every other field as a verdict."""
    out = {f.name: verdict_to_json(getattr(analysis, f.name))
           for f in fields(analysis) if f.name != "limit_set"}
    out["limit_set"] = pointset_to_json(ground, analysis.limit_set)
    return out


def report_to_json(report) -> dict:
    """A ``SuiteReport``'s fields but the run-to-run ``elapsed_seconds``."""
    out = {f.name: getattr(report, f.name) for f in fields(report)
           if f.name != "elapsed_seconds"}
    out["passed"] = report.passed
    return out


def verify_to_json(budget: int, seed: int, reports) -> dict:
    return {"budget": budget, "seed": seed,
            "suites": [report_to_json(r) for r in reports]}


# -- omega cell grids -----------------------------------------------------------------

def cell_table_from_json(obj, grid: CellGrid) -> DiscreteSemiflow:
    """The flow mapping cell ``i`` onto the cells ``obj[i]`` lists."""
    if not isinstance(obj, list):
        raise MalformedInputError("cell table must be a list of cell lists")
    if not all(isinstance(row, list) and all(
            type(c) is int and 0 <= c < grid.total for c in row)
            for row in obj):
        raise MalformedInputError("cell table rows must list cells of the grid")
    return DiscreteSemiflow("table", table=tuple(
        sum(1 << c for c in set(row)) for row in obj))


def omega_summary_to_json(result: OmegaResult) -> dict:
    return {
        "omega": list(set_bits(result.omega)),
        "preperiod": result.preperiod,
        "period": result.period,
        "attraction_trace_zero_from_preperiod": attraction_trace_check(result),
    }


_REQUIRED = object()


def _field(obj, name, kind=object, default=_REQUIRED):
    """``obj[name]``, which must be a ``kind`` (a bool is not an int)."""
    if not isinstance(obj, dict) or (name not in obj and default is _REQUIRED):
        raise MalformedInputError(f"missing field {name!r} in {excerpt(obj)}")
    value = obj.get(name, default)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedInputError(
            f"field {name!r} must be of type {kind.__name__}: {excerpt(value)}")
    return value


def _matrix(obj, name) -> list:
    rows = _field(obj, name, list)
    if not all(isinstance(row, list) for row in rows):
        raise MalformedInputError(f"rows of {name!r} must be lists: {excerpt(rows)}")
    return rows


def _relation(obj, name) -> list:
    """A ``_matrix`` of JSON bools (a number is not a relation entry)."""
    rows = _matrix(obj, name)
    if not all(isinstance(x, bool) for row in rows for x in row):
        raise MalformedInputError(
            f"entries of {name!r} must be true or false: {excerpt(rows)}")
    return rows
