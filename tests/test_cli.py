import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from limitset_lab import cli, jsonio
from limitset_lab.cli import build_parser, cmd_omega, run
from limitset_lab.errors import MalformedInputError, excerpt
from limitset_lab.semiflow_cells import (CellGrid, DiscreteSemiflow,
                                         omega_limit_cells)
from test_acceptance import VERIFY_ALL_SEED42_SHA256
from test_semiflow_cells import reference_hits


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIERPINSKI_JSON = {"n": 2, "spec": [[True, True], [False, True]]}
ESCAPE_NET_JSON = {
    "ground": {"dim": 1, "excluded": []},
    "index": {"kind": "znn"},
    "preperiod": [],
    "tail": {"kind": "affine", "c": [{"num": "0", "den": "1"}],
             "v": [{"num": "1", "den": "1"}]},
}

DEMO = Path(__file__).resolve().parent.parent / "demo"
TABLE = object()  # an argv placeholder for a cell-table file the test writes
# `net analyze` reports on the demo nets, pinned byte for byte
LOST_ANALYSIS = (
    '{"asympt_seq_compact":{"state":"fails"},'
    '"converges_above_to_limit":{"state":"fails"},"horizon":64,'
    '"lagrange_stable":{"state":"fails"},"limit_set":[],'
    '"limit_set_compact":{"state":"fails"},'
    '"weakly_asympt_seq_compact":{"state":"fails"}}\n')
DEMO_ANALYSES = {
    "escape.json": LOST_ANALYSIS,
    "periodic.json": (
        '{"asympt_seq_compact":{"state":"holds"},'
        '"converges_above_to_limit":{"state":"holds"},"horizon":64,'
        '"lagrange_stable":{"state":"holds"},"limit_set":[0,1],'
        '"limit_set_compact":{"state":"holds"},'
        '"weakly_asympt_seq_compact":{"state":"holds"}}\n'),
    "trap.json": LOST_ANALYSIS,
}

# sha256 of `omega` CSV plus summary, measured before the cell grid went
# to bitset dilation and a per-run cell table
OMEGA_PINNED = {
    "readme-logistic": (
        ["--map", "logistic", "--param", "2.0", "--cells", "64",
         "--init", "all"],
        "fde189ca1205fa1c7931f2638753497c72c77ec39461d4de0933f236d53d5f47"),
    "readme-rotation": (
        ["--map", "rotation", "--param", "1/8", "--cells", "8",
         "--init", "cell:0"],
        "073641fffd6f3db9c3624811b3b74a9c6d1baf13c287aa24eb30b5ddcef63a44"),
    "henon-256": (
        ["--map", "henon", "--param", "7/5", "--param2", "3/10",
         "--cells", "256", "--init", "all"],
        "a59998ea23c2dd66a37b77f67d80fdc485896d28afcaf3f8b6062f6544f0c6da"),
    "logistic-4096-outer": (
        ["--map", "logistic", "--param", "39/10", "--cells", "4096",
         "--samples", "8", "--dilate",
         "--init", "cells:" + ",".join(map(str, range(0, 4096, 2)))],
        "9a4ccfb1dc570194f1be1f2e521c8a646fa6d7671d2ec297102039c0176980f4"),
}


class TestSpaceCheck:
    def test_sierpinski_properties(self, tmp_path, capsys):
        infile = write_json(tmp_path / "space.json", SIERPINSKI_JSON)
        code = run(["space", "check", "--props",
                    "hausdorff,regular,pseudometrizable", "--in", infile])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"hausdorff": False, "regular": False,
                       "pseudometrizable": False}

    def test_unknown_property_is_input_error(self, tmp_path, capsys):
        infile = write_json(tmp_path / "space.json", SIERPINSKI_JSON)
        assert run(["space", "check", "--props", "compact",
                    "--in", infile]) == 2
        assert "unknown property" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        # bad syntax, non-UTF-8 bytes, nesting past the recursion limit and
        # an int literal over the digit limit, on both JSON-reading commands
        bad = tmp_path / "bad.json"
        for body in (b"{nope", b'{"spec": "\xff"}', b"[" * 100_000,
                     b"1" * 5000):
            bad.write_bytes(body)
            for command in (["space", "check"], ["net", "analyze"]):
                assert run(command + ["--in", str(bad)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("limitset-lab: ")
                assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", [5, [5], [[2]]])
    def test_mistyped_spec_fails_closed(self, spec, tmp_path, capsys):
        infile = write_json(tmp_path / "space.json", {"spec": spec})
        assert run(["space", "check", "--in", infile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: ") and err.count("\n") == 1

    def test_missing_file_is_input_error(self):
        assert run(["space", "check", "--in", "/nonexistent.json"]) == 2

    def test_regularity_bound_exits_two(self, tmp_path, capsys):
        n = 14
        infile = write_json(tmp_path / "space.json", {
            "n": n, "spec": [[x == y for y in range(n)] for x in range(n)]})
        start = time.perf_counter()
        assert run(["space", "check", "--in", infile]) == 2
        err = capsys.readouterr().err
        assert err == "limitset-lab: regularity check capped at n <= 10\n"
        assert run(["space", "check", "--props", "hausdorff,pseudometrizable",
                    "--in", infile]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "hausdorff": True, "pseudometrizable": True}
        assert time.perf_counter() - start < 1


class TestNetAnalyze:
    def test_escape_net_analysis(self, tmp_path):
        infile = write_json(tmp_path / "escape.json", ESCAPE_NET_JSON)
        outfile = tmp_path / "analysis.json"
        code = run(["net", "analyze", "--in", infile, "--horizon", "64",
                    "--out", str(outfile)])
        assert code == 0
        out = json.loads(outfile.read_text())
        assert out["limit_set"] == []
        assert out["lagrange_stable"] == {"state": "fails"}
        assert out["limit_set_compact"] == {"state": "fails"}
        assert out["horizon"] == 64

    def test_analysis_round_trips_as_json(self, tmp_path, capsys):
        infile = write_json(tmp_path / "net.json", ESCAPE_NET_JSON)
        assert run(["net", "analyze", "--in", infile]) == 0
        text = capsys.readouterr().out
        assert json.loads(text) == json.loads(jsonio.dumps_canonical(
            json.loads(text)))

    @pytest.mark.parametrize("name", sorted(DEMO_ANALYSES))
    def test_demo_analysis_pinned(self, name, tmp_path):
        outfile = tmp_path / "analysis.json"
        assert run(["net", "analyze", "--in", str(DEMO / name),
                    "--out", str(outfile)]) == 0
        assert outfile.read_text() == DEMO_ANALYSES[name]

    @pytest.mark.parametrize("name, path, value", [
        ("trap.json", ("ground", "dim"), "x"),
        ("trap.json", ("ground", "dim"), True),
        ("trap.json", ("ground", "excluded"), 5),
        ("trap.json", ("preperiod",), 3),
        ("periodic.json", ("tail", "cycle"), 7),
        ("trap.json", ("tail", "b"), 7),
        ("escape.json", ("tail", "c", 0), True),
        ("periodic.json", ("tail", "cycle", 0, 0), True),
        ("periodic.json", ("ground", "spec", 0, 1), 2),
        ("periodic.json", ("index",),
         {"kind": "product", "left": {"kind": "znn"},
          "right": {"kind": "znn"}}),
    ], ids=["dim-str", "dim-bool", "excluded", "preperiod", "cycle", "b",
            "c-bool", "point-bool", "spec-int", "product-index"])
    def test_mistyped_field_fails_closed(self, name, path, value, tmp_path,
                                         capsys):
        net = json.loads((DEMO / name).read_text())
        node = net
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("rel, message", [
        ([[True, False]], "relation matrix is not square"),
        ([[False, True], [False, True]],
         "relation matrix must be reflexive and transitive"),
        ([[True, True, False], [False, True, True], [False, False, True]],
         "relation matrix must be reflexive and transitive"),
        ([[True, False], [False, True]], "index order must be directed"),
    ], ids=["non-square", "not-reflexive", "intransitive", "undirected"])
    def test_bad_finite_index_fails_closed(self, rel, message, tmp_path,
                                           capsys):
        net = {"ground": SIERPINSKI_JSON,
               "index": {"kind": "finite", "rel": rel},
               "assignment": [[0]] * len(rel)}
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 2
        assert capsys.readouterr().err == f"limitset-lab: {message}\n"

    def test_finite_index_net_analysis(self, tmp_path, capsys):
        # 0 <= 1, 2 and 1 ~ 2: the top class {1, 2} recurs
        net = {"ground": SIERPINSKI_JSON,
               "index": {"kind": "finite",
                         "rel": [[True, True, True], [False, True, True],
                                 [False, True, True]]},
               "assignment": [[0, 1], [0], [1]]}
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["limit_set"] == [0, 1]
        assert out["limit_set_compact"] == {"state": "holds"}

    @pytest.mark.parametrize("num", ["1_0", " 1", "1 ", "+1", "\u0663"])
    def test_non_ascii_integer_rational_fails_closed(self, num, tmp_path,
                                                     capsys):
        net = json.loads((DEMO / "escape.json").read_text())
        net["tail"]["c"][0]["num"] = num
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: bad rational object")
        assert err.count("\n") == 1

    def test_metric_ground_net(self, tmp_path):
        net = {"ground": {"dist": [[0, 1], [1, 0]]},
               "tail": {"kind": "periodic", "cycle": [[0], [1]]}}
        infile = write_json(tmp_path / "net.json", net)
        outfile = tmp_path / "analysis.json"
        assert run(["net", "analyze", "--in", infile,
                    "--out", str(outfile)]) == 0
        out = json.loads(outfile.read_text())
        assert out["limit_set"] == [0, 1]
        assert out["limit_set_compact"] == {"state": "holds"}

    def test_metric_ground_with_wrong_n_fails_closed(self, tmp_path,
                                                     capsys):
        net = {"ground": {"n": 7, "dist": [[0, 1], [1, 0]]},
               "tail": {"kind": "periodic", "cycle": [[0], [1]]}}
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 2
        assert capsys.readouterr().err == (
            "limitset-lab: n does not match the dist matrix\n")

    @pytest.mark.parametrize("path, value", [
        (("tail", "r"), {"num": "1", "den": "7" * 4400}),
        (("tail", "r"), ["1" * 4400]),
        (("tail", "a"), [{"num": "1"}] + [{"num": "1", "den": "3"}] * 5000),
        (("tail", "b"), {"num": "1", "den": "2", "pad": "x" * 10_000}),
        (("ground",), {"dim": 1, "excluded": [["x" * 9000]]}),
        (("tail", "kind"), "k" * 9000),
        (("tail",), {"kind": "geometric", "pad": [[0] * 99] * 99}),
        (("ground",), {"spec": [[2] * 5000]}),
        (("ground",), {"dist": [5] * 5000}),
    ], ids=["long-den", "long-list", "long-point", "extra-key",
            "long-excluded", "long-kind", "missing-field", "long-spec",
            "long-dist"])
    def test_error_line_is_bounded(self, path, value, tmp_path, capsys):
        net = json.loads((DEMO / "trap.json").read_text())
        node = net
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        infile = write_json(tmp_path / "net.json", net)
        assert run(["net", "analyze", "--in", infile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: ") and err.count("\n") == 1
        assert len(err) <= 200

    def test_slow_ratio_geometric_net_answers_quickly(self, tmp_path,
                                                       capsys):
        infile = write_json(tmp_path / "net.json", {
            "ground": {"dim": 1, "excluded": [[{"num": "1", "den": "2"}]]},
            "index": {"kind": "znn"}, "preperiod": [],
            "tail": {"kind": "geometric", "a": [{"num": "0", "den": "1"}],
                     "b": [{"num": "1", "den": "1"}],
                     "r": {"num": "999999", "den": "1000000"}}})
        start = time.perf_counter()
        assert run(["net", "analyze", "--in", infile]) == 0
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["limit_set"] == [[{"num": "0", "den": "1"}]]
        assert out["converges_above_to_limit"] == {"state": "holds"}

    def test_bad_horizon(self, tmp_path):
        infile = write_json(tmp_path / "net.json", ESCAPE_NET_JSON)
        assert run(["net", "analyze", "--in", infile, "--horizon", "0"]) == 2


def oracle_parse_init(raw, grid):
    """The token-by-token ``--init`` parser that the one-pass one replaced."""
    if raw == "all":
        return grid.full_mask
    if raw.startswith("cell:") or raw.startswith("cells:"):
        body = raw.split(":", 1)[1]
        bits = bytearray((grid.total + 7) >> 3)
        for part in body.split(","):
            try:
                # int() alone also takes "1_0", " 1", "+1" and "\u0663"
                if not (part.isascii() and part.isdigit()):
                    raise ValueError("cell indices must be ASCII digits")
                i = int(part)
            except ValueError:
                raise MalformedInputError(
                    f"bad cell index in --init: {excerpt(part)}")
            if not 0 <= i < grid.total:
                raise MalformedInputError(f"cell {excerpt(i)} outside the grid")
            bits[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bits, "little")
    raise MalformedInputError(
        f"bad --init: {excerpt(raw)} (use all or cell:K)")


def parse_outcome(parse, raw, grid):
    """The mask a parser returns, or the message of the error it raises."""
    try:
        return parse(raw, grid)
    except MalformedInputError as exc:
        return str(exc)


def init_strings(total):
    """--init strings for a grid of ``total`` cells: index lists over the
    characters and spellings int() reads more loosely than --init does,
    indices up to just past the grid, and digit runs on both sides of
    int()'s 4,300-digit limit; and any text."""
    token = st.one_of(
        st.integers(0, total + 1).map(str),
        st.text(alphabet="0123456789_ +-\u0663", max_size=6),
        st.sampled_from(["1_0", " 1", "+1", "-1", "\u0663", "",
                         "9" * 5000, "0" * 5000, "1" + "0" * 4299,
                         "0" * 4300, "0" * 4301]))
    body = st.one_of(st.text(alphabet="0123456789,_ +-\u0663", max_size=24),
                     st.lists(token, min_size=1, max_size=6).map(",".join),
                     st.lists(st.integers(0, total), min_size=1, max_size=4)
                     .map(lambda cells: ",".join(map(str, cells))))
    prefix = st.sampled_from(["cell:", "cells:", "cell", "cells:cell:", ""])
    return st.one_of(st.just("all"), st.tuples(prefix, body).map("".join),
                     st.text(max_size=12))


GRIDS = (CellGrid(1, 4), CellGrid(1, 16), CellGrid(2, 4), CellGrid(1, 64))


class TestOmega:
    def test_rotation_example(self, tmp_path, capsys):
        outfile = tmp_path / "trace.csv"
        code = run(["omega", "--map", "rotation", "--param", "0.125",
                    "--cells", "8", "--init", "cell:0", "--out", str(outfile)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["omega"] == list(range(8))
        assert summary["period"] == 8 and summary["preperiod"] == 0
        assert summary["attraction_trace_zero_from_preperiod"] is True
        lines = outfile.read_text().strip().splitlines()
        assert lines[0] == "n,cells,distance"
        assert len(lines) == 1 + 8  # preperiod + period rows
        assert all(row.endswith(",0.0") for row in lines[1:])

    def test_table_flow(self, tmp_path, capsys):
        table = write_json(tmp_path / "table.json", [[1], [0]])
        code = run(["omega", "--map", "table", "--in", table, "--cells", "2",
                    "--init", "all", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.err)["omega"] == [0, 1]

    def test_table_row_repeats_a_cell(self, tmp_path, capsys):
        # a repeated cell is still that one cell, not the sum of its bits
        table = write_json(tmp_path / "table.json", [[1, 1], [1], [2], [3]])
        assert run(["omega", "--map", "table", "--in", table, "--cells", "4",
                    "--init", "cell:0", "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().err)["omega"] == [1]

    def test_empty_omega(self, tmp_path, capsys):
        # the orbit dies after one step: I_0 is at distance inf from the
        # empty omega, and the run ends
        table = write_json(tmp_path / "table.json", [[], [], [], []])
        outfile = tmp_path / "trace.csv"
        assert run(["omega", "--map", "table", "--in", table, "--cells", "4",
                    "--init", "cells:0,1", "--out", str(outfile)]) == 0
        assert outfile.read_text().splitlines() == [
            "n,cells,distance", "0,2,inf", "1,0,0.0"]
        assert json.loads(capsys.readouterr().out) == {
            "omega": [], "preperiod": 1, "period": 1,
            "attraction_trace_zero_from_preperiod": True}

    def test_init_cells_match_an_or_fold(self):
        rng = random.Random("init-parse")
        for _ in range(40):
            grid = CellGrid(rng.choice((1, 2)), rng.choice((1, 2, 8, 64)))
            picks = [rng.randrange(grid.total)
                     for _ in range(rng.randint(1, 2 * grid.total))]
            expect = 0
            for i in picks:
                expect |= 1 << i
            raw = rng.choice(("cell:", "cells:")) + ",".join(map(str, picks))
            assert cli._parse_init(raw, grid) == expect

    def test_init_parse_is_linear(self):
        # OR-ing 1 << i into a 2^24-bit int per index took seconds here
        grid = CellGrid(2, 4096)
        picks = random.Random("init-linear").sample(range(grid.total), 16_000)
        raw = "cells:" + ",".join(map(str, picks))
        start = time.perf_counter()
        mask = cli._parse_init(raw, grid)
        elapsed = time.perf_counter() - start
        assert mask.bit_count() == len(picks) and mask >> max(picks) == 1
        assert elapsed < 1, f"16,000 cells on a 4096^2 grid took {elapsed:.1f}s"

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(GRIDS).flatmap(
        lambda grid: st.tuples(st.just(grid), init_strings(grid.total))))
    @example(case=(GRIDS[1], "cells:\u0663,5"))
    @example(case=(GRIDS[0], "cells:0,4"))  # a spare bit of the last byte
    @example(case=(GRIDS[1], "cells:99," + "9" * 5000))
    @example(case=(GRIDS[1], "cells:" + "9" * 5000 + ",99"))
    def test_init_parse_matches_the_token_by_token_oracle(
            self, default_int_digit_limit, case):
        grid, raw = case
        # the same mask, or the same message for the first bad index
        assert parse_outcome(cli._parse_init, raw, grid) == \
            parse_outcome(oracle_parse_init, raw, grid)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=init_strings(16))
    def test_any_init_exits_0_or_2_with_one_line(self, tmp_path, raw):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["omega", "--map", "rotation", "--param", "1/8",
                        "--cells", "16", "--init", raw,
                        "--out", str(tmp_path / "t.csv")])
        err = err.getvalue()
        if code == 0:
            assert err == "" and "omega" in json.loads(out.getvalue())
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.startswith("limitset-lab: ") and \
                err.count("\n") == 1 and err.endswith("\n"), err

    def test_bad_init_is_input_error(self, capsys):
        assert run(["omega", "--map", "rotation", "--param", "0.125",
                    "--cells", "8", "--init", "nope"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--init", "cell:1_0", "bad cell index"),
        ("--init", "cell: 1", "bad cell index"),
        ("--init", "cell:+1", "bad cell index"),
        ("--init", "cell:\u0663", "bad cell index"),
        ("--param", "1_0/7", "--param must be a rational"),
        ("--param", " 3/2", "--param must be a rational"),
    ])
    def test_loose_digits_fail_closed(self, flag, value, message, tmp_path,
                                      capsys):
        argv = {"--map": "tent", "--param": "2", "--cells": "16",
                "--init": "cell:1", "--out": str(tmp_path / "t.csv")}
        argv[flag] = value
        assert run(["omega"] + [a for kv in argv.items() for a in kv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"limitset-lab: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1_6", " 16", "+2", "\u0661\u0666"])
    @pytest.mark.parametrize("flag, argv", [
        ("--cells", ["omega", "--map", "tent", "--param", "2"]),
        ("--samples", ["omega", "--map", "tent", "--param", "2",
                       "--cells", "16"]),
        ("--budget", ["verify", "--suite", "kuratowski_equality"]),
        ("--seed", ["verify", "--suite", "kuratowski_equality",
                    "--budget", "2"]),
        ("--horizon", ["net", "analyze", "--in", str(DEMO / "escape.json")]),
    ])
    def test_loose_integer_flags_fail_closed(self, flag, argv, value,
                                             tmp_path, capsys):
        # int() alone reads each of these values as an integer
        out = str(tmp_path / "out")
        assert run(argv + [flag, value, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == (f"limitset-lab: argument {flag}: invalid int value: "
                       f"{value!r}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("param", ["7", "-0.125", "39/10", "-1/8"])
    def test_ascii_params_accepted(self, param, tmp_path):
        assert run(["omega", "--map", "rotation", f"--param={param}",
                    "--cells", "16", "--init", "cell:1", "--out",
                    str(tmp_path / "t.csv")]) == 0

    def test_negative_param_needs_an_equals_sign(self, tmp_path, capsys):
        # argparse reads a separate "-1/8" as a flag, not as the value
        out = str(tmp_path / "t.csv")
        assert run(["omega", "--map", "rotation", "--param", "-1/8",
                    "--cells", "16", "--init", "cell:1", "--out", out]) == 2
        assert capsys.readouterr().err == \
            "limitset-lab: argument --param: expected one argument\n"
        assert run(["omega", "--map", "rotation", "--param=-1/8",
                    "--cells", "16", "--init", "cell:1", "--out", out]) == 0

    @pytest.mark.parametrize("argv, kind, params", [
        (["--map", "rotation", "--param", "9" * 400], "rotation",
         (10 ** 400 - 1,)),
        (["--map", "henon", "--param", "1/2", "--param2", "9" * 400], "henon",
         (Fraction(1, 2), 10 ** 400 - 1)),
        (["--map", "henon", "--param", "1/2",
          "--param2=-" + "9" * 400 + "/7"], "henon",
         (Fraction(1, 2), Fraction(1 - 10 ** 400, 7)))])
    def test_parameter_beyond_every_float_runs_exactly(self, argv, kind, params,
                                                       tmp_path, capsys):
        assert run(["omega", *argv, "--cells", "16", "--init", "all",
                    "--out", str(tmp_path / "t.csv")]) == 0
        # omega of the table whose rows are the exact Fraction images
        flow = DiscreteSemiflow(kind, params)
        grid = CellGrid(flow.dim, 16)
        table = DiscreteSemiflow("table", table=tuple(
            reference_hits(grid, flow, i, 1) for i in range(grid.total)))
        omega = omega_limit_cells(grid, table, grid.full_mask).omega
        assert json.loads(capsys.readouterr().out)["omega"] == [
            i for i in range(grid.total) if omega >> i & 1]

    def test_table_size_checked(self, tmp_path):
        table = write_json(tmp_path / "table.json", [[0]])
        assert run(["omega", "--map", "table", "--in", table,
                    "--cells", "4"]) == 2

    @pytest.mark.parametrize("rows", [[["a"], [0]], [[2], [0]], [[-1], [0]],
                                      [0, [1]]])
    def test_table_rows_checked(self, rows, tmp_path, capsys):
        table = write_json(tmp_path / "table.json", rows)
        assert run(["omega", "--map", "table", "--in", table,
                    "--cells", "2"]) == 2
        assert "rows must list cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--map", "logistic", "--param", "abc"],
        ["--map", "rotation", "--param", "1/8", "--init", "cell:x"],
        ["--map", "logistic"],
        ["--map", "logistic", "--param", "x" * 5000],
        ["--map", "tent", "--param", "2", "--init", "cell:" + "9" * 5000],
        ["--map", "tent", "--param", "2", "--init", "cell:" + "9" * 4000],
        ["--map", "tent", "--param", "2", "--init", "x" * 5000],
        ["--map", "table", "--in", TABLE, "--param", "7"],
        ["--map", "table", "--in", TABLE, "--param2", "x"],
        ["--map", "table", "--in", TABLE, "--samples", "64"],
        ["--map", "table", "--in", TABLE, "--dilate"],
        ["--map", "logistic", "--param", "2", "--in", TABLE],
        ["--map", "logistic", "--param", "2", "--in", "nonexistent.json"],
        ["--map", "logistic", "--param", "2", "--samples", "65"],
        ["--map", "henon", "--param", "7/5", "--param2", "3/10",
         "--samples", "100000000"],
    ], ids=["param", "init", "missing-param", "long-param", "long-cell",
            "far-cell", "long-init", "table-param", "table-param2",
            "table-samples", "table-dilate", "builtin-in",
            "builtin-missing-in", "samples-over-bound", "huge-samples"])
    def test_malformed_input_fails_closed(self, argv, capsys, tmp_path):
        # TABLE stands for a valid 8-cell table, so the flag is the only fault
        table = write_json(tmp_path / "table.json",
                           [[(c + 1) % 8] for c in range(8)])
        assert run(["omega", "--map", "table", "--in", table,
                    "--cells", "8", "--out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        argv = ["omega"] + [table if a is TABLE else a for a in argv] + \
            ["--cells", "8"]
        with pytest.raises(MalformedInputError):
            cmd_omega(build_parser().parse_args(argv))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: ") and err.count("\n") == 1
        assert len(err) <= 200

    def test_a_table_map_needs_an_input_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["omega", "--map", "table", "--cells", "8",
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "limitset-lab: --map table needs --in table.json\n")

    @pytest.mark.parametrize("name", sorted(OMEGA_PINNED))
    def test_output_pinned(self, name, tmp_path, capsys):
        argv, digest = OMEGA_PINNED[name]
        outfile = tmp_path / "trace.csv"
        start = time.perf_counter()
        assert run(["omega"] + argv + ["--out", str(outfile)]) == 0
        elapsed = time.perf_counter() - start
        data = outfile.read_bytes() + capsys.readouterr().out.encode()
        assert hashlib.sha256(data).hexdigest() == digest
        if name == "henon-256":
            assert elapsed < 10, f"henon 256/axis took {elapsed:.1f}s"


def csv_writer_trace(result):
    """The trace CSV of ``result`` written with ``csv.writer``: the
    reference that ``cmd_omega``'s own row formatting must match."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "cells", "distance"])
    for (n, d), count in zip(result.trace, result.sizes):
        writer.writerow([n, count, float(d)])
    return buf.getvalue().encode()


def trace_sweep(rng):
    """Seeded omega argvs: the four builtins and a table flow, 1-D and 2-D,
    ``--samples`` 1-3, ``--dilate`` on and off, and all, cell: and cells:
    inits; a table is (TABLE, rows)."""
    params = {"logistic": (["39/10"], ["2.0"], ["7/2"], ["4"]),
              "tent": (["3/2"], ["2"], ["1/3"]),
              "rotation": (["1/8"], ["2/7"], ["0.3"]),
              "henon": (["7/5", "3/10"], ["1/2", "1/4"])}
    argvs = []
    for kind in ("logistic", "tent", "rotation", "henon", "table"):
        for _ in range(6):
            cells = rng.choice((4, 8) if kind == "henon" else (4, 8, 16, 32))
            total = cells ** (2 if kind == "henon" else 1)
            argv = ["--map", kind, "--cells", str(cells)]
            if kind == "table":
                rows = [rng.sample(range(total), rng.randint(0, 2))
                        for _ in range(total)]
                argv += ["--in", (TABLE, rows)]
            else:
                for flag, raw in zip(("--param", "--param2"),
                                     rng.choice(params[kind])):
                    argv += [flag, raw]
                argv += ["--samples", str(rng.randint(1, 3))]
                argv += ["--dilate"] * rng.randint(0, 1)
            init = rng.choice(("all", "cell:", "cells:"))
            if init != "all":
                init += ",".join(str(rng.randrange(total)) for _ in range(
                    1 if init == "cell:" else rng.randint(1, total)))
            argvs.append(argv + ["--init", init])
    return argvs


class TestTraceCsv:
    """The trace rows ``cmd_omega`` formats are the bytes ``csv.writer``
    wrote for the same result."""

    def run_both(self, argv, tmp_path, monkeypatch, capsys):
        results = []

        def recording(*args, **kwargs):
            results.append(omega_limit_cells(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "omega_limit_cells", recording)
        argv = [write_json(tmp_path / "table.json", a[1])
                if type(a) is tuple else a for a in argv]
        outfile = tmp_path / "trace.csv"
        assert run(["omega"] + argv + ["--out", str(outfile)]) == 0, \
            capsys.readouterr().err
        capsys.readouterr()
        (result,) = results
        return outfile.read_bytes(), csv_writer_trace(result)

    @pytest.mark.parametrize("name", sorted(OMEGA_PINNED))
    def test_pinned_traces(self, name, tmp_path, monkeypatch, capsys):
        written, reference = self.run_both(OMEGA_PINNED[name][0], tmp_path,
                                           monkeypatch, capsys)
        assert written == reference

    def test_seeded_sweep(self, tmp_path, monkeypatch, capsys):
        argvs = trace_sweep(random.Random("trace-csv"))
        assert len(argvs) == 30
        for argv in argvs:
            written, reference = self.run_both(argv, tmp_path, monkeypatch,
                                               capsys)
            assert written == reference, argv
            monkeypatch.undo()

    def test_an_empty_row_writes_inf(self, tmp_path, monkeypatch, capsys):
        # cell 3 runs 3 -> {0, 1} -> {1, 2} -> {2} -> {}: omega is empty
        argv = ["--map", "table", "--in", (TABLE, [[1], [2], [], [0, 1]]),
                "--cells", "4", "--init", "cell:3"]
        written, reference = self.run_both(argv, tmp_path, monkeypatch,
                                           capsys)
        assert written == reference
        assert written.count(b",inf\r\n") == 4


def other_interpreters():
    """(minor, path) of each ``python3.<minor>`` on PATH, minor >= 10, that
    starts, reports that version and is not the running interpreter's."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            done = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue  # e.g. a version manager's shim with no install behind
        if done.returncode == 0 and done.stdout.strip() == f"(3, {minor})":
            found.append((minor, exe))
    return found


class TestVerify:
    def test_pinned_report_under_other_interpreters(self, tmp_path):
        # requires-python >= 3.10: every other such interpreter on PATH
        # must write the acceptance #8 report byte for byte
        interpreters = other_interpreters()
        if not interpreters:
            pytest.skip("no other python3.1x (x >= 10) on PATH")
        src = str(Path(cli.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        for minor, exe in interpreters:
            out = tmp_path / f"3.{minor}.json"
            done = subprocess.run(
                [exe, "-m", "limitset_lab.cli", "verify", "--suite", "all",
                 "--budget", "1000", "--seed", "42", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=600)
            assert done.returncode == 0, (exe, done.stderr)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == VERIFY_ALL_SEED42_SHA256, exe

    def test_single_suite_writes_report(self, tmp_path, capsys):
        outfile = tmp_path / "report.json"
        code = run(["verify", "--suite", "kuratowski_equality",
                    "--budget", "40", "--seed", "42", "--out", str(outfile)])
        assert code == 0
        report = json.loads(outfile.read_text())
        assert report["budget"] == 40 and report["seed"] == 42
        (suite,) = report["suites"]
        assert suite["suite"] == "kuratowski_equality"
        assert suite["passed"] is True
        assert "elapsed_seconds" not in suite
        assert "PASS kuratowski_equality" in capsys.readouterr().out

    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--suite", "sequential_limits", "--budget", "30",
                "--seed", "42"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite_is_input_error(self, capsys):
        assert run(["verify", "--suite", "bogus"]) == 2

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_a_budget_below_one_is_one_input_error_line(self, budget, capsys):
        assert run(["verify", "--suite", "kuratowski_equality", "--budget",
                    budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "limitset-lab: --budget must be positive\n"

    def test_summary_line_goes_to_stderr_when_the_report_streams(self,
                                                                 capsys):
        assert run(["verify", "--suite", "kuratowski_equality", "--budget",
                    "20", "--seed", "42", "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["suites"][0]["instances"] == 20
        prefix = ("PASS kuratowski_equality: 20 instances, 0 violations, "
                  "0 exhibits (")
        assert captured.err.startswith(prefix)
        assert re.fullmatch(r"\d+\.\d\ds\)\n", captured.err[len(prefix):])


class TestOutFile:
    """``--out`` is written in place and cut to length; the bytes are the
    ones ``--out -`` prints."""

    REQUESTS = {
        "space": ["space", "check", "--in", str(DEMO / "sierpinski.json")],
        "net": ["net", "analyze", "--in", str(DEMO / "trap.json")],
        "omega": ["omega"] + OMEGA_PINNED["readme-rotation"][0],
        "verify": ["verify", "--suite", "kuratowski_equality",
                   "--budget", "20", "--seed", "42"],
    }

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_a_longer_old_file_is_cut_to_the_streamed_bytes(self, name,
                                                            tmp_path, capsys):
        argv = self.REQUESTS[name]
        assert run(argv + ["--out", "-"]) == 0
        streamed = capsys.readouterr().out.encode()
        outfile = tmp_path / "out"
        outfile.write_bytes(b"x" * 5000)
        assert run(argv + ["--out", str(outfile)]) == 0
        assert outfile.read_bytes() == streamed

    def test_dev_null_is_written_without_truncation(self, capsys,
                                                    monkeypatch):
        def refuse(fd, n):
            raise AssertionError("ftruncate on a character device")

        monkeypatch.setattr(cli.os, "ftruncate", refuse)
        assert run(self.REQUESTS["net"] + ["--out", "/dev/null"]) == 0
        assert capsys.readouterr().err == ""

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        # a pipe or a signal can cut a write short: at most 3 bytes a call
        # still writes every byte, and a longer old file is cut to length
        text = "".join(f"{n},{n * n}\n" for n in range(40))
        real, truncated = os.write, []
        monkeypatch.setattr(cli.os, "write",
                            lambda fd, data: real(fd, data[:3]))
        monkeypatch.setattr(cli.os, "ftruncate",
                            lambda fd, n, _real=os.ftruncate: (
                                truncated.append(n), _real(fd, n)))
        outfile = tmp_path / "out"
        outfile.write_bytes(b"x" * 5000)
        cli._write(str(outfile), text)
        assert outfile.read_bytes() == text.encode()
        assert truncated == [len(text)]

    def test_a_directory_is_one_input_error_line(self, tmp_path, capsys):
        assert run(self.REQUESTS["net"] + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("limitset-lab: ") and err.count("\n") == 1

    def test_a_new_file_gets_the_umask_mode(self, tmp_path):
        outfile = tmp_path / "new.json"
        old = os.umask(0o027)
        try:
            assert run(self.REQUESTS["net"] + ["--out", str(outfile)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(outfile.stat().st_mode) == 0o666 & ~0o027


def test_argparse_errors_exit_two(capsys):
    # a usage error is one bounded input-error line, not usage plus error;
    # each line is the one the single top-level parse wrote, so routing a
    # command straight to its subparser changes none of them
    for argv, line in (
            (["bogus"], "argument command: invalid choice: 'bogus' "
             "(choose from 'space', 'net', 'omega', 'verify')"),
            (["space"], "the following arguments are required: action, --in"),
            (["space", "nope"], "argument action: invalid choice: 'nope' "
             "(choose from 'check')"),
            (["net", "analyze"], "the following arguments are required: --in"),
            (["net", "analyze", "--in", "x", "extra"],
             "unrecognized arguments: extra"),
            (["omega", "--map", "nope", "--cells", "8"],
             "argument --map: invalid choice: 'nope' (choose from "
             "'logistic', 'tent', 'rotation', 'henon', 'table')"),
            (["omega", "--map", "logistic", "--param", "2",
              "--cells", "x" * 5000],
             "argument --cells: invalid int value: '" + "x" * 79 + "..."),
            (["--bogus"], "the following arguments are required: command"),
            ([], "the following arguments are required: command")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"limitset-lab: {line}\n"
        assert len(captured.err) <= 200


@pytest.mark.parametrize("argv", [["--help"], ["omega", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert run(argv) == 0
    assert "usage: limitset-lab" in capsys.readouterr().out


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_give_identical_results(self, tmp_path, capsys):
        argvs = [
            ["net", "analyze", "--in", str(DEMO / "trap.json")],
            ["space", "check", "--in", str(DEMO / "sierpinski.json")],
            ["omega"] + OMEGA_PINNED["readme-rotation"][0],
            ["omega", "--map", "logistic", "--cells", "x"],
            ["omega", "--map", "rotation", "--param", "1/8", "--cells", "8",
             "--init", "nope"],
        ]

        def call(i, argv):
            outfile = tmp_path / f"out{i}"
            outfile.write_bytes(b"")
            code = run(argv + ["--out", str(outfile)])
            captured = capsys.readouterr()
            return code, outfile.read_bytes(), captured.out, captured.err

        first = [call(i, argv) for i, argv in enumerate(argvs)]
        again = [call(i, argv) for i, argv in enumerate(argvs, len(argvs))]
        assert [r[0] for r in first] == [0, 0, 0, 2, 2]
        assert first[0][1] == DEMO_ANALYSES["trap.json"].encode()
        assert again == first

    def test_no_parser_built_after_the_first_call(self, monkeypatch,
                                                  capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        argv = ["space", "check", "--in", str(DEMO / "sierpinski.json")]
        assert run(argv) == 0
        assert len(built) == 5  # the top-level parser and four subparsers
        built.clear()
        for _ in range(20):
            assert run(argv) == 0
            assert run(["bogus"]) == 2
        assert built == []
