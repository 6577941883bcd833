import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitset_lab import jsonio
from limitset_lab.errors import (LimitsetError, MalformedInputError,
                                 MembershipError)
from limitset_lab.finite_topology import (SIERPINSKI, FiniteSpace,
                                          discrete_space, enumerate_spaces)
from limitset_lab.jsonio import fraction_from_json, fraction_to_json
from limitset_lab.pseudometric_core import (FinitePseudoMetric,
                                            RationalPointSpace)
from limitset_lab.semiflow_cells import CellGrid
from limitset_lab.subset_nets import (ZNN, AffineEscape, GeometricConverge,
                                      Periodic, SubsetNet, analyze)
from limitset_lab.theoremlab import (RULE_FAMILIES, iter_directed_posets,
                                     iter_periodic_cycles, random_rule_net)


def pt(*coords):
    return tuple(F(c) for c in coords)


class TestRationals:
    def test_string_digits_round_trip(self):
        x = F(10 ** 40 + 1, 3)
        j = fraction_to_json(x)
        assert j == {"num": str(10 ** 40 + 1), "den": "3"}
        assert fraction_from_json(j) == x

    def test_plain_ints_accepted_on_input(self):
        assert fraction_from_json(7) == 7

    def test_json_int_parts_accepted(self):
        assert fraction_from_json({"num": 3, "den": -4}) == F(-3, 4)
        assert fraction_from_json({"num": "-0", "den": "007"}) == 0

    @pytest.mark.parametrize("part", ["1_0", " 1", "1 ", "+1", "\u0663",
                                      "1\n", "", "-"])
    def test_only_ascii_integer_parts_accepted(self, part):
        # int() takes each of these: "1_0" as 10, " 1", "1 ", "+1" and
        # "1\n" as 1, and the Arabic-Indic digit three as 3
        for obj in ({"num": part, "den": "1"}, {"num": "1", "den": part}):
            with pytest.raises(MalformedInputError):
                fraction_from_json(obj)

    def test_bad_rational_rejected(self):
        with pytest.raises(MalformedInputError):
            fraction_from_json({"num": "1", "den": "0"})
        with pytest.raises(MalformedInputError):
            fraction_from_json("x")

    @pytest.mark.parametrize("obj", ["x", 1, None, {"0": 1}, (1,)])
    def test_a_point_must_be_a_list(self, obj):
        with pytest.raises(MalformedInputError, match="expected point"):
            jsonio.point_from_json(obj)


class TestOrders:
    def test_round_trips(self):
        chain = FiniteSpace.from_matrix([[a <= b for b in range(3)]
                                         for a in range(3)])
        for order in (chain, ZNN):
            j = jsonio.order_to_json(order)
            assert jsonio.order_from_json(j) == order
            assert jsonio.order_to_json(jsonio.order_from_json(j)) == j

    def test_spec_shapes(self):
        assert jsonio.order_to_json(ZNN) == {"kind": "znn"}
        assert jsonio.order_from_json({"kind": "znn"}) is ZNN
        j = jsonio.order_to_json(FiniteSpace.from_matrix([[True]]))
        assert j == {"kind": "finite", "rel": [[True]]}


class TestGrounds:
    def test_finite_space_shape_and_round_trip(self):
        j = jsonio.finite_space_to_json(SIERPINSKI)
        assert j == {"n": 2, "spec": [[True, True], [False, True]]}
        assert jsonio.finite_space_from_json(j).rows == SIERPINSKI.rows

    def test_mismatched_n_rejected(self):
        with pytest.raises(MalformedInputError):
            jsonio.finite_space_from_json({"n": 3, "spec": [[True]]})

    def test_rational_space_round_trip(self):
        space = RationalPointSpace(2, [pt(1, 2), pt(0, 0)])
        j = jsonio.rational_space_to_json(space)
        assert jsonio.rational_space_from_json(j) == space

    def test_metric_round_trip(self):
        m = FinitePseudoMetric([[0, F(1, 3)], [F(1, 3), 0]])
        j = jsonio.metric_to_json(m)
        assert j == {"n": 2, "dist": [
            [{"num": "0", "den": "1"}, {"num": "1", "den": "3"}],
            [{"num": "1", "den": "3"}, {"num": "0", "den": "1"}]]}
        back = jsonio.metric_from_json(j)
        assert back == m and (back.scale, back.scaled) == (3, ((0, 1), (1, 0)))

    def test_metric_mismatched_n_rejected(self):
        with pytest.raises(MalformedInputError,
                           match="^n does not match the dist matrix$"):
            jsonio.metric_from_json({"n": 7, "dist": [[0, 1], [1, 0]]})
        with pytest.raises(MalformedInputError):
            jsonio.metric_from_json({"n": True, "dist": [[0]]})
        assert jsonio.metric_from_json({"n": 1, "dist": [[0]]}).n == 1

    @pytest.mark.parametrize("decode, obj", [
        (jsonio.finite_space_from_json, {"spec": 5}),
        (jsonio.finite_space_from_json, {"spec": [5]}),
        (jsonio.order_from_json, {"kind": "finite", "rel": 5}),
        (jsonio.order_from_json, {"kind": "finite", "rel": [5]}),
        (jsonio.rational_space_from_json, {"dim": True}),
        (jsonio.rational_space_from_json, {"dim": 1, "excluded": 5}),
        (jsonio.metric_from_json, {"dist": 5}),
        (jsonio.metric_from_json, {"dist": [5]}),
        # a JSON bool is not a number, and a number is not a relation entry
        (fraction_from_json, True),
        (fraction_from_json, {"num": True, "den": "1"}),
        (jsonio.finite_space_from_json, {"spec": [[2]]}),
        (jsonio.finite_space_from_json, {"n": True, "spec": [[True]]}),
        (jsonio.order_from_json, {"kind": "finite", "rel": [["x"]]}),
        (jsonio.net_from_json, {"ground": {"spec": [[True, True],
                                                 [False, True]]},
                                "tail": {"kind": "periodic",
                                         "cycle": [[True]]}}),
    ])
    def test_mistyped_fields_rejected(self, decode, obj):
        with pytest.raises(MalformedInputError):
            decode(obj)

    def test_ground_dispatch(self):
        assert isinstance(jsonio.ground_from_json({"dim": 1}),
                          RationalPointSpace)
        assert isinstance(jsonio.ground_from_json({"dist": [[0]]}),
                          FinitePseudoMetric)
        with pytest.raises(MalformedInputError,
                           match="'spec'.*'dist'.*'dim'"):
            jsonio.ground_from_json({"what": 1})
        with pytest.raises(MalformedInputError):
            jsonio.ground_from_json(5)

    @pytest.mark.parametrize("ground, key", [
        (SIERPINSKI, "spec"),
        (discrete_space(3), "spec"),
        # a metric is a FiniteSpace too, but must travel as its distances
        (FinitePseudoMetric([[0, 0], [0, 0]]), "dist"),
        (FinitePseudoMetric([[0, F(1, 2)], [F(1, 2), 0]]), "dist"),
        (RationalPointSpace(2, [pt(1, 2), pt(0, 0)]), "dim"),
    ], ids=["sierpinski", "discrete", "zero-metric", "metric", "rational"])
    def test_ground_round_trip(self, ground, key):
        j = jsonio.ground_to_json(ground)
        assert key in j
        back = jsonio.ground_from_json(j)
        assert type(back) is type(ground) and back == ground
        assert jsonio.ground_to_json(back) == j

    def test_unencodable_ground_refused(self):
        for ground in (ZNN, object()):
            with pytest.raises(MalformedInputError,
                               match="^unencodable ground"):
                jsonio.ground_to_json(ground)


class TestPointSets:
    @pytest.mark.parametrize("entry", [True, 2, -1, "0", 1.0],
                             ids=["bool", "too-big", "negative", "str",
                                  "float"])
    def test_finite_entries_are_indices_below_n(self, entry):
        with pytest.raises(MalformedInputError,
                           match="^finite point sets hold indices below 2"):
            jsonio.pointset_from_json(SIERPINSKI, [0, entry])

    def test_point_set_must_be_a_list(self):
        for ground in (SIERPINSKI, RationalPointSpace(1)):
            for obj in (5, {"0": 1}, None):
                with pytest.raises(MalformedInputError,
                                   match="^point set must be a list$"):
                    jsonio.pointset_from_json(ground, obj)

    def test_repeated_index_is_one_point(self):
        assert jsonio.pointset_from_json(SIERPINSKI, [1, 1, 0, 1]) == 0b11
        assert jsonio.pointset_to_json(SIERPINSKI, 0b11) == [0, 1]


def q(num, den=1):
    return {"num": str(num), "den": str(den)}


Q2_EXCLUDING = {"dim": 2, "excluded": [[q(0), q(0)], [q(5), q(1, 2)]]}
EXCLUDED_ORIGIN = ("point (Fraction(0, 1), Fraction(0, 1)) is excluded "
                   "from the space")


class TestRationalPointSets:
    def test_each_decoded_point_is_hashed_once(self, monkeypatch):
        # the frozenset hashes each coordinate; the exclusion test reads
        # the stored hashes instead of hashing every point a second time
        wire = {"ground": Q2_EXCLUDING,
                "preperiod": [[[q(1), q(2)], [q(1, 3), q(-1)]], [[q(7), q(7)]]],
                "tail": {"kind": "periodic",
                         "cycle": [[[q(2), q(2)]],
                                   [[q(3, 4), q(1)], [q(9), q(9)]]]}}
        calls = []

        def counting(self, _real=F.__hash__):
            calls.append(self)
            return _real(self)

        monkeypatch.setattr(F, "__hash__", counting)
        net = jsonio.net_from_json(wire)
        monkeypatch.undo()
        coords = [c for s in net.preperiod + net.tail.cycle for p in s
                  for c in p]
        assert len(coords) == 12
        assert [sum(c is seen for seen in calls) for c in coords] == [1] * 12

    @pytest.mark.parametrize("points, message", [
        ([[q(1), q(1)], [q(3)], [q(0), q(0)]],
         "point of dimension 1, space has 2"),
        ([[q(1), q(1)], [q(0), q(0)], [q(3)]], EXCLUDED_ORIGIN),
        ([[q(0), q(0)], [q(1), "x"]], EXCLUDED_ORIGIN),
        ([[q(3)], [q(1), "x"]], "point of dimension 1, space has 2"),
        ([[q(1), q(1)], [q(1), "x"], [q(0), q(0)]],
         "expected rational, got: 'x'"),
        ([[q(1), q(1)], [q(5), q(1, 2)], [q(0), q(0)]],
         "point (Fraction(5, 1), Fraction(1, 2)) is excluded from the space"),
    ], ids=["dimension-first", "excluded-first", "excluded-then-malformed",
            "dimension-then-malformed", "malformed-first", "first-excluded"])
    def test_a_refusal_names_the_first_bad_point(self, points, message):
        # the message of checking point by point, in input order
        ground = jsonio.ground_from_json(Q2_EXCLUDING)
        with pytest.raises((MalformedInputError, MembershipError),
                           match=f"^{re.escape(message)}$"):
            jsonio.pointset_from_json(ground, points)


def text_mode_refusal(path):
    """The refusal of reading ``path`` as ``read_json`` did when it read
    the file in text mode, or None when that read parses."""
    with open(path, encoding="utf-8") as f:
        try:
            json.load(f)
        except (ValueError, RecursionError) as exc:
            return f"{path}: {exc}"
    return None


EIGHT_KIB = 8192
READ_JSON_FILES = {
    "crlf": b'{\r\n  "a": 1,\r\n  "b": ]\r\n}\r\n',
    "lone-cr": b'{\r  "a": 1,\r  "b": ]\r}\r',
    "mixed-ends": b'[1,\r\n 2,\r 3,\n\r\n\r 4 5]',
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "invalid-byte-before-8k": b'["' + b"a" * 100 + b'\xff", 1]',
    "invalid-byte-after-8k": b'["' + b"a" * 9000 + b'\xff", 1]',
    "control-char-in-string": b'{"a":\r\n "b\x01c"}',
    "cr-in-string": b'{"a":\r\n "b\rc"}',
    "split-multibyte-at-8k": (b'["' + b"a" * (EIGHT_KIB - 3)
                              + "\u20ac\u00e9".encode() + b'",\r\n x]'),
    "truncated-multibyte": b'["' + b"a" * (EIGHT_KIB - 2) + b"\xe2\x82",
}


class TestReadJson:
    @pytest.mark.parametrize("name", sorted(READ_JSON_FILES))
    def test_refusal_matches_a_text_mode_read(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_bytes(READ_JSON_FILES[name])
        expect = text_mode_refusal(path)
        assert expect is not None
        with pytest.raises(MalformedInputError) as info:
            jsonio.read_json(str(path))
        assert str(info.value) == expect

    def test_line_ends_are_read_as_in_text_mode(self, tmp_path):
        path = tmp_path / "ends.json"
        path.write_bytes(b'{\r\n"a": [1,\r2],\n"b": "x"\r\n}\r')
        with open(path, encoding="utf-8") as f:
            assert jsonio.read_json(str(path)) == json.load(f)


class TestNets:
    def test_periodic_finite_ground(self):
        net = SubsetNet.over_znn(SIERPINSKI, [0b01], Periodic((0b10, 0b11)))
        j = jsonio.net_to_json(net)
        assert j["preperiod"] == [[0]]
        assert j["tail"] == {"kind": "periodic", "cycle": [[1], [0, 1]]}
        back = jsonio.net_from_json(j)
        assert back.preperiod == net.preperiod
        assert back.tail == net.tail
        assert jsonio.net_to_json(back) == j
        # a repeated point is still that one point, not the sum of its bits
        j["tail"]["cycle"] = [[1, 1], [0, 1, 0]]
        assert jsonio.net_from_json(j).tail == net.tail

    def test_derived_preperiods_survive_json(self):
        # a net read from JSON is built by over_znn, never by with_preperiod,
        # so it checks how the verify suites derive their preperiods; the
        # wire preperiod is spelled from ``pre`` itself, not from the net
        checked = 0
        for n in (1, 2):
            for space in enumerate_spaces(n):
                for base, pres in iter_periodic_cycles(space):
                    for pre in pres:
                        net = base.with_preperiod(pre)
                        wire = dict(jsonio.net_to_json(base), preperiod=[
                            [i for i in range(n) if m >> i & 1]
                            for m in pre])
                        assert jsonio.net_to_json(net) == wire
                        back = jsonio.net_from_json(
                            json.loads(json.dumps(wire)))
                        h = len(pre) + 2 * len(net.tail.cycle)
                        assert back.values(h) == net.values(h), wire
                    checked += len(pres)
        assert checked == 1722

    def test_affine_and_geometric_round_trip(self):
        space = RationalPointSpace(1, [pt(F(9, 7))])
        for tail in (AffineEscape(pt(0), pt(F(1, 2))),
                     GeometricConverge(pt(0), pt(1), F(-1, 2)),
                     GeometricConverge(pt(0), (pt(-1), pt(1)), F(1, 2))):
            net = SubsetNet.over_znn(space, [frozenset({pt(5)})], tail)
            j = jsonio.net_to_json(net)
            back = jsonio.net_from_json(j)
            assert back.at(4) == net.at(4)
            assert jsonio.net_to_json(back) == j

    def test_finite_index_net_round_trip(self):
        order = FiniteSpace.from_matrix([[a <= b for b in range(2)]
                                         for a in range(2)])
        net = SubsetNet.over_finite(discrete_space(2), order, [0b01, 0b11])
        j = jsonio.net_to_json(net)
        back = jsonio.net_from_json(j)
        assert back.assignment == net.assignment
        assert jsonio.net_to_json(back) == j

    def test_metric_ground_keeps_its_distances(self):
        metric = FinitePseudoMetric([[0, 1], [1, 0]])
        net = SubsetNet.over_znn(metric, [], Periodic((0b01,)))
        j = jsonio.net_to_json(net)
        assert "dist" in j["ground"] and "spec" not in j["ground"]
        back = jsonio.net_from_json(j)
        assert back.ground == metric
        assert isinstance(back.ground, FinitePseudoMetric)
        assert back.tail == net.tail and back.summary == net.summary
        assert jsonio.net_to_json(back) == j

    def test_default_index_is_znn(self):
        j = {"ground": {"dim": 1, "excluded": []},
             "tail": {"kind": "affine",
                      "c": [{"num": "0", "den": "1"}],
                      "v": [{"num": "1", "den": "1"}]}}
        net = jsonio.net_from_json(j)
        assert net.index is ZNN


DEMO = Path(__file__).resolve().parent.parent / "demo"
HALF = {"num": "1", "den": "2"}
# valid net JSON to mutate: the three demo nets, a net over a finite index
# (1 ~ 2 on top of 0) and a Z+ net over a finite metric
VALID_NETS = [json.loads((DEMO / name).read_text())
              for name in ("escape.json", "periodic.json", "trap.json")] + [
    {"ground": {"n": 2, "spec": [[True, True], [False, True]]},
     "index": {"kind": "finite",
               "rel": [[True, True, True], [False, True, True],
                       [False, True, True]]},
     "assignment": [[0], [1], [0, 1]]},
    {"ground": {"n": 2, "dist": [[0, HALF], [HALF, 0]]},
     "preperiod": [[0, 1]], "tail": {"kind": "periodic", "cycle": [[1], []]}},
]
# the words of the net wire format, so that mutations reach its fields
WIRE_WORDS = ("ground", "n", "spec", "dist", "dim", "excluded", "index",
              "kind", "rel", "znn", "finite", "product", "assignment",
              "preperiod", "tail", "periodic", "affine", "geometric", "cycle",
              "c", "v", "a", "b", "r", "num", "den", "0", "-1", "1/2")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(WIRE_WORDS) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(WIRE_WORDS), inner,
                                     max_size=3)),
    max_leaves=6)


def json_paths(obj, at=()):
    """The path of every node of a JSON tree, the root's ``()`` first."""
    yield at
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from json_paths(value, at + (key,))


@st.composite
def mutated_nets(draw):
    """A valid net's JSON with one to three nodes replaced, deleted or
    given a new child (a leaf given a child is replaced)."""
    obj = json.loads(json.dumps(draw(st.sampled_from(VALID_NETS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(obj))))
        value = draw(json_values)
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node, op = parent[path[-1]], draw(st.sampled_from(
            ("replace", "delete", "add")))
        if op == "delete":
            del parent[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(WIRE_WORDS))] = value
        elif op == "add" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), value)
        else:  # a replacement, or a new child for a leaf
            parent[path[-1]] = value
    return obj


FINITE_GROUNDS = [*enumerate_spaces(1), *enumerate_spaces(2),
                  FinitePseudoMetric([[0, F(1, 2), 1], [F(1, 2), 0, 1],
                                      [1, 1, 0]])]
DIRECTED_INDEXES = list(iter_directed_posets(3))


@st.composite
def generated_nets(draw):
    """A rule net over Q^d, or a periodic or finite-index net over a
    finite space or a finite metric."""
    shape = draw(st.sampled_from(("rule", "periodic", "finite")))
    if shape == "rule":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        return random_rule_net(rng, draw(st.sampled_from(RULE_FAMILIES)))
    ground = draw(st.sampled_from(FINITE_GROUNDS))
    masks = st.integers(0, ground.full_mask)
    if shape == "periodic":
        return SubsetNet.over_znn(
            ground, draw(st.lists(masks, max_size=3)),
            Periodic(tuple(draw(st.lists(masks, min_size=1, max_size=3)))))
    index = draw(st.sampled_from(DIRECTED_INDEXES))
    return SubsetNet.over_finite(
        ground, index, draw(st.lists(masks, min_size=index.n,
                                     max_size=index.n)))


class TestNetWireProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(mutated_nets())
    def test_a_mutated_net_decodes_or_is_refused(self, obj):
        try:
            jsonio.net_from_json(obj)
        except LimitsetError:
            pass

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(generated_nets())
    def test_a_net_survives_the_round_trip(self, net):
        wire = jsonio.dumps_canonical(jsonio.net_to_json(net))
        back = jsonio.net_from_json(json.loads(wire))
        assert type(back) is type(net)
        assert back.label() == net.label()
        assert back.summary == net.summary
        index = range(13) if net.index is ZNN else range(net.index.n)
        assert [back.at(s) for s in index] == [net.at(s) for s in index]


class TestCellTable:
    @pytest.mark.parametrize("obj", [{}, "[[1]]", 3, None])
    def test_a_table_must_be_a_list(self, obj):
        with pytest.raises(MalformedInputError, match="must be a list"):
            jsonio.cell_table_from_json(obj, CellGrid(1, 4))


class TestVerdicts:
    def test_verdicts_spell_holds_or_fails(self):
        assert jsonio.verdict_to_json(True) == {"state": "holds"}
        assert jsonio.verdict_to_json(False) == {"state": "fails"}

    def test_analysis_shape(self):
        net = SubsetNet.over_znn(RationalPointSpace(1), [],
                                 Periodic((frozenset({pt(0)}),)))
        out = jsonio.analysis_to_json(net.ground, analyze(net))
        assert out["limit_set"] == [[{"num": "0", "den": "1"}]]
        assert out["limit_set_compact"] == {"state": "holds"}
        # every emitted analysis re-parses as JSON to an equal value
        assert json.loads(jsonio.dumps_canonical(out)) == out

    def test_a_cell_grid_limit_set_lists_its_cells(self):
        # cells are encoded as sorted indices, as the omega summary lists them
        net = SubsetNet.over_znn(CellGrid(1, 8), [], Periodic((0b11,)))
        out = jsonio.analysis_to_json(net.ground, analyze(net))
        assert out["limit_set"] == [0, 1]
        assert jsonio.pointset_to_json(CellGrid(2, 4), 0b1000_0001_0000) == [
            4, 11]

    def test_analysis_encoder_reads_no_dataclass_fields_per_call(
            self, monkeypatch):
        # the verdict field names are read once, when the module loads
        def no_fields(obj):
            raise AssertionError("dataclasses.fields called per encode")

        monkeypatch.setattr(jsonio, "fields", no_fields)
        net = SubsetNet.over_znn(RationalPointSpace(1), [],
                                 Periodic((frozenset({pt(0)}),)))
        assert sorted(jsonio.analysis_to_json(net.ground, analyze(net))) == [
            "asympt_seq_compact", "converges_above_to_limit",
            "lagrange_stable", "limit_set", "limit_set_compact",
            "weakly_asympt_seq_compact"]


def test_canonical_dump_is_stable():
    payload = {"b": 1, "a": [2, 3]}
    assert jsonio.dumps_canonical(payload) == '{"a":[2,3],"b":1}\n'
