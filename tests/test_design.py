"""Structural checks on the package source."""

import ast
import importlib
import inspect
import types
from fractions import Fraction
from pathlib import Path

import limitset_lab
from limitset_lab.finite_topology import BitmaskGround, FiniteSpace
from limitset_lab.pseudometric_core import (FinitePseudoMetric,
                                            RationalPointSpace)
from limitset_lab.semiflow_cells import CellGrid
from limitset_lab.theoremlab import SUITES

SRC = Path(limitset_lab.__file__).parent
RULES = {"Periodic", "AffineEscape", "GeometricConverge"}
# the wire format names each rule kind and each index kind; the horizon
# oracle answers periodic tails only, and reads a finite index's assignment
ALLOWED = {("jsonio.py", None),
           ("subset_nets.py", "limit_set_horizon_oracle")}


def rule_type_tests(tree):
    """(enclosing function, line) of each isinstance call naming a rule."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & RULES:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_wire_format_asks_a_tail_rule_its_type():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for func, line in rule_type_tests(ast.parse(path.read_text())):
            if not {(path.name, None), (path.name, func)} & ALLOWED:
                offenders.append(f"{path.name}:{line} in {func}")
    assert not offenders


def test_the_scan_sees_rule_type_tests():
    tree = ast.parse("def f(t):\n    return isinstance(t, (int, m.Periodic))\n"
                     "isinstance(x, AffineEscape)\n")
    assert rule_type_tests(tree) == [("f", 2), (None, 3)]


def index_kind_tests(tree):
    """(enclosing function, line) of each test of a net's index kind: an
    ``is_znn`` attribute, a comparison with ``ZNN`` by ``is``, ``is not``,
    ``==`` or ``!=``, and an isinstance call naming ``FiniteIndexNet``."""
    found = []
    kind_ops = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)

    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "is_znn":
            found.append((func, node.lineno))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, kind_ops) and (named(a, "ZNN") or named(b, "ZNN"))
                   for op, a, b in zip(node.ops, operands, operands[1:])):
                found.append((func, node.lineno))
        elif (isinstance(node, ast.Call) and named(node.func, "isinstance")
              and len(node.args) == 2 and any(
                  named(n, "FiniteIndexNet") for n in ast.walk(node.args[1]))):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_net_classes_ask_a_net_its_index_kind():
    # each net class answers for its own index; the wire format and the
    # horizon oracle, which read the raw assignment, are the only others
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for func, line in index_kind_tests(ast.parse(path.read_text())):
            if not {(path.name, None), (path.name, func)} & ALLOWED:
                offenders.append(f"{path.name}:{line} in {func}")
    assert not offenders


def test_the_scan_sees_index_kind_tests():
    tree = ast.parse("class SubsetNet:\n"
                     "    index = ZNN\n"
                     "    def __init__(self, index):\n"
                     "        self.is_znn = index is ZNN\n"
                     "def f(net):\n"
                     "    if net.is_znn or m.ZNN is not net.index:\n"
                     "        return isinstance(net, (int, m.FiniteIndexNet))\n"
                     "    return net.index == ZNN, ZNN != net.index\n"
                     "ok = isinstance(net, SubsetNet), net.index is None\n"
                     "ok = net.index < ZNN, ZNN in kinds, is_znn(net)\n")
    assert index_kind_tests(tree) == [
        ("__init__", 4), ("__init__", 4), ("f", 6), ("f", 6), ("f", 7),
        ("f", 8), ("f", 8)]


def classes_defining(tree, method):
    """Names of the classes in ``tree`` whose body defines ``method``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == method for item in node.body)]


def imported_modules(tree):
    """Every module name an import in ``tree`` mentions, dotted parts split."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_finite_space_is_the_one_finite_preorder():
    # a finite topology and a finite net index are one representation:
    # only FiniteSpace parses a relation matrix (FinitePseudoMetric
    # inherits it), and no second order module exists
    owners, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners += [(path.name, name)
                   for name in classes_defining(tree, "from_matrix")]
        if "directed_sets" in imported_modules(tree):
            importers.append(path.name)
    assert owners == [("finite_topology.py", "FiniteSpace")]
    assert not importers


def test_the_scans_see_matrix_parsers_and_imports():
    tree = ast.parse("class A:\n    def from_matrix(cls): pass\n"
                     "class B(A):\n    pass\n"
                     "from .directed_sets import top_element\n"
                     "from . import directed_sets\n")
    assert classes_defining(tree, "from_matrix") == ["A"]
    assert "directed_sets" in imported_modules(tree)
    assert "directed_sets" in imported_modules(
        ast.parse("import limitset_lab.directed_sets\n"))


HARNESS_CALLS = {"SuiteReport", "Random"}


def calls_outside(tree, names, owner):
    """(enclosing function, line) of each call to one of ``names`` (a plain
    name or an attribute such as ``random.Random``) that is not inside the
    function ``owner``, nested functions included."""
    found = []

    def visit(node, funcs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = funcs + (node.name,)
        if isinstance(node, ast.Call) and owner not in funcs:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                found.append((funcs[-1] if funcs else None, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, funcs)

    visit(tree, ())
    return found


def test_only_the_suite_harness_builds_reports_and_seeds():
    # every suite gets its report and its seeded rng from @_suite, so a
    # suite body never writes its own name into either
    tree = ast.parse((SRC / "theoremlab.py").read_text())
    assert calls_outside(tree, HARNESS_CALLS, "_suite") == []


def test_the_scan_sees_reports_and_seeds_built_outside_the_harness():
    tree = ast.parse("def _suite(body):\n"
                     "    def run(budget, seed):\n"
                     "        report = SuiteReport('x', seed, budget)\n"
                     "        body(report, random.Random(f'{seed}:x'))\n"
                     "def suite_y(report, rng):\n"
                     "    return SuiteReport('y', 1, 2), Random('1:y')\n"
                     "rng = random.Random(0)\n")
    assert calls_outside(tree, HARNESS_CALLS, "_suite") == [
        ("suite_y", 6), ("suite_y", 6), (None, 7)]


def test_one_function_searches_a_tail_line_for_excluded_points():
    # the affine and geometric exclusion proofs share one line-hit search,
    # so only that search solves for a point's line parameter
    callers = {(path.name, func) for path in sorted(SRC.glob("*.py"))
               for func, _ in calls_outside(ast.parse(path.read_text()),
                                            {"_line_parameter"}, None)}
    assert len(callers) == 1, callers


def test_the_scan_sees_every_caller_of_a_function():
    tree = ast.parse("def f(c):\n"
                     "    return m._line_parameter(c), line_parameter(c)\n"
                     "def g():\n"
                     "    def inner():\n"
                     "        return _line_parameter(1)\n"
                     "    return _line_parameter, lambda: _line_parameter(2)\n"
                     "t = _line_parameter(0)\n")
    assert calls_outside(tree, {"_line_parameter"}, None) == [
        ("f", 2), ("inner", 5), ("g", 6), (None, 7)]


def wire_format_offences(tree, name):
    """(what, line) of each ``json`` import and each ``*_to_json`` or
    ``*_from_json`` function in module ``name`` (bar ``jsonio.py``), and of
    each ``_``-prefixed name it imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name != "jsonio.py" and node.name.endswith(
                    ("_to_json", "_from_json")):
                found.append((node.name, node.lineno))
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name.startswith("_")]
        else:
            continue
        if name != "jsonio.py":
            found += [(m, node.lineno) for m in modules
                      if m.split(".")[0] == "json"]
    return found


def test_only_jsonio_touches_json_and_no_module_imports_a_private_name():
    # every JSON shape, rationals and points included, is read and written
    # in one place, and no module reaches into another's private helpers
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{line} {what}"
                      for what, line in wire_format_offences(tree, path.name)]
    assert not offenders


def test_the_scan_sees_json_imports_and_private_names():
    tree = ast.parse("import json\n"
                     "from json import loads\n"
                     "import json.decoder as d, os\n"
                     "from .semiflow_cells import CellGrid, _set_bits\n"
                     "from __future__ import annotations\n"
                     "import jsonio\n"
                     "def point_to_json(p): pass\n"
                     "def fraction_from_json(obj): pass\n"
                     "def to_jsonish(x): pass\n")
    assert wire_format_offences(tree, "cli.py") == [
        ("json", 1), ("json", 2), ("json.decoder", 3), ("_set_bits", 4),
        ("point_to_json", 7), ("fraction_from_json", 8)]
    assert wire_format_offences(tree, "jsonio.py") == [("_set_bits", 4)]
    nested = ast.parse("class Grid:\n    def grid_to_json(self): pass\n")
    assert wire_format_offences(nested, "rationals.py") == [
        ("grid_to_json", 2)]


def file_writes(tree):
    """(enclosing function, line) of each call that may open a file for
    writing: ``os.open``, any ``write_text`` or ``write_bytes``, and an
    ``open``, ``io.open``, ``os.fdopen`` or ``<path>.open`` whose mode may
    write (holds w, a, x or +, or is not a literal)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            owner = (f.value.id if isinstance(f, ast.Attribute)
                     and isinstance(f.value, ast.Name) else None)
            name = f.attr if isinstance(f, ast.Attribute) else (
                f.id if isinstance(f, ast.Name) else None)
            if name in ("write_text", "write_bytes") or (owner, name) == (
                    "os", "open"):
                found.append((func, node.lineno))
            elif name in ("open", "fdopen"):
                # open(file, mode), io.open and os.fdopen(fd, mode); a
                # path's own .open(mode) takes the mode first
                at = 0 if (isinstance(f, ast.Attribute)
                           and owner not in ("io", "os")) else 1
                modes = node.args[at:at + 1] + [k.value for k in node.keywords
                                                if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_cli_writer_opens_a_file_for_writing():
    # every output file goes through cli._write, which writes in place
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [f"{path.name}:{line} in {func}"
                      for func, line in file_writes(ast.parse(path.read_text()))
                      if (path.name, func) != ("cli.py", "_write")]
    assert not offenders


def test_the_scan_sees_writing_opens():
    tree = ast.parse("def read(p):\n"
                     "    return open(p), open(p, 'rb'), open(p, mode='r')\n"
                     "def write(p, m):\n"
                     "    open(p, 'w'); open(p, mode='ab'); open(p, 'r+')\n"
                     "    open(p, 'x'); open(p, m)\n"
                     "fd = os.open('f', os.O_RDONLY)\n"
                     "path.open(), path.open('r'), path.open(mode='rb')\n"
                     "io.open(p), io.open(p, 'r'), os.fdopen(fd, 'rb')\n"
                     "path.read_text(), space.minimal_open(1)\n"
                     "path.open('w'), path.open(mode='a'), path.open(m)\n"
                     "io.open(p, 'w'), os.fdopen(fd, 'w'), os.fdopen(fd, m)\n"
                     "path.write_text('x'), path.write_bytes(b'x')\n"
                     "Path(p).open('w'), Path(p).open()\n")
    assert file_writes(tree) == [("write", 4), ("write", 4), ("write", 4),
                                 ("write", 5), ("write", 5), (None, 6)] + [
        (None, 10)] * 3 + [(None, 11)] * 3 + [(None, 12)] * 2 + [
        (None, 13)]


def shifted_bit_folds(tree):
    """Lines of each ``name |= 1 << ...`` inside a loop: OR-ing one bit at a
    time into a growing int copies the int for every bit."""
    found = []

    def visit(node, in_loop):
        if (in_loop and isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.LShift)
                and isinstance(node.value.left, ast.Constant)
                and node.value.left.value == 1):
            found.append(node.lineno)
        in_loop = in_loop or isinstance(node, (ast.For, ast.While))
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop)

    visit(tree, False)
    return found


def test_no_grid_sized_int_is_built_one_bit_at_a_time():
    # cell sets are grid-sized ints: --init and the image step set bits in
    # a bytearray and read it as one int
    offenders = []
    for name in ("cli.py", "semiflow_cells.py"):
        offenders += [f"{name}:{line}" for line in
                      shifted_bit_folds(ast.parse((SRC / name).read_text()))]
    assert not offenders


def test_the_scan_sees_bit_folds_in_loops():
    tree = ast.parse("mask |= 1 << 3\n"
                     "for i in xs:\n"
                     "    mask |= 1 << i\n"
                     "    out[i >> 3] |= 1 << (i & 7)\n"
                     "    mask |= mask << 1\n"
                     "    if i:\n"
                     "        mask |= 1 << (i + 1)\n"
                     "while xs:\n"
                     "    mask = mask | 1 << xs.pop()\n"
                     "    mask |= 1 << xs.pop()\n")
    assert shifted_bit_folds(tree) == [3, 7, 10]


# public functions that no src code calls yet, kept on purpose
KEPT_UNCALLED = {
    # paper lemmas that ROADMAP item 13 wires into a verify suite
    "separate_compact_from_point", "compact_inner_radius", "eventually_in",
    "frequently_in", "below_iff_semidistance",
    # the semicontinuity API: the benchmark drives it, item 6 wires it
    "is_lsc_at", "is_usc_at", "lsc_via_semidistance",
    # constructors of the two extreme topologies
    "discrete_space", "indiscrete_space",
    # the input encoder of the net round-trip contract
    "net_to_json",
    # the brute-force oracle of limit_set, which tests compare it with
    # (item 3 moves it into an oracle module)
    "limit_set_horizon_oracle",
    # the omega backend's one-step image, which tests drive
    "cell_image",
}


def uncalled_functions(trees):
    """(module, name) of each public module-level function in ``trees`` (a
    dict from module name to tree) that no other code names, outside its
    own body: as a plain name, as ``<module>.<name>`` or as a string equal
    to the name (``cli`` dispatches ``cmd_*`` by the name its subparsers
    store).  A ``@_suite`` body is registered by its decorator, and
    ``cli.main`` is the console script, so both count as called."""
    defined, named = [], set()

    def visit(node, owner):  # owner: the enclosing module-level function
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and owner is None):
            owner = node.name
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Constant):
            name = node.value if isinstance(node.value, str) else None
        else:
            name = (node.attr if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in trees else None)
        if name is not None and name != owner:
            named.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for module, tree in trees.items():
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and not any(isinstance(d, ast.Name) and d.id == "_suite"
                                for d in node.decorator_list)
                    and (module, node.name) != ("cli", "main")]
        visit(tree, None)
    return [(module, name) for module, name in defined if name not in named]


def test_every_public_function_is_called_or_kept_on_purpose():
    # a public function that nothing in src calls is wired into a suite,
    # a command or another function, or deleted
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    uncalled = uncalled_functions(trees)
    assert [f"{m}.{n}" for m, n in uncalled if n not in KEPT_UNCALLED] == []
    assert {n for _, n in uncalled} == KEPT_UNCALLED  # no stale entry


def test_the_scan_sees_uncalled_functions():
    trees = {
        "a": ast.parse("def used(): pass\n"
                       "def by_module(): pass\n"
                       "def recursive(n):\n"
                       "    return recursive(n - 1)\n"
                       "def _private(): pass\n"
                       "def caller():\n"
                       "    def inner():\n"
                       "        return used\n"
                       "    return b.helper, inner, 'by_name'\n"
                       "def by_name(): pass\n"
                       "@_suite\n"
                       "def suite_x(report, rng): pass\n"
                       "class C:\n"
                       "    def method(self):\n"
                       "        return a.by_module(), x.unused(), 'recursive!'\n"),
        "b": ast.parse("def helper(): pass\n"
                       "def unused(): pass\n"),
        "cli": ast.parse("def main(): pass\n"),
    }
    assert uncalled_functions(trees) == [
        ("a", "recursive"), ("a", "caller"), ("b", "unused")]


def assert_statements(tree):
    """Lines of each ``assert`` statement: ``python -O`` strips them, so a
    check in src must raise explicitly."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_check_in_src_is_an_assert():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [f"{path.name}:{line}" for line in
                      assert_statements(ast.parse(path.read_text()))]
    assert not offenders


def test_the_scan_sees_asserts():
    tree = ast.parse("assert x\n"
                     "def f(ball, u):\n"
                     "    if ball & ~u:\n"
                     "        raise RuntimeError('assert')\n"
                     "    assert ball & ~u == 0, 'leaves u'\n"
                     "    return AssertionError\n")
    assert assert_statements(tree) == [1, 5]


# a point-set walk belongs to finite_topology's bit-walk helper alone
BIT_WALK_HELPER = {("finite_topology.py", "set_bits"),
                   ("finite_topology.py", "_scan_bits")}


def hand_rolled_bit_walks(tree):
    """(enclosing function, line) of each lowest-set-bit step: ``x & -x``
    or ``x &= -x``, or clearing it in place with ``x &= x - 1`` or
    ``x = x & (x - 1)``; and of each ``bin(...).count("1")`` popcount.  A plain ``n & (n - 1)``
    is a power-of-two test, not a walk."""
    found = []

    def same(a, b):
        return ast.unparse(a) == ast.unparse(b)

    def negated(node, of):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and same(node.operand, of))

    def cleared(node, of):  # of & (of - 1)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and same(node.left, of) and isinstance(node.right, ast.BinOp)
                and isinstance(node.right.op, ast.Sub)
                and same(node.right.left, of)
                and ast.unparse(node.right.right) == "1")

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            step = negated(node.right, node.left) or negated(node.left,
                                                             node.right)
        elif isinstance(node, ast.AugAssign):
            step = isinstance(node.op, ast.BitAnd) and (
                negated(node.value, node.target) or cleared(
                    ast.BinOp(node.target, ast.BitAnd(), node.value),
                    node.target))
        elif isinstance(node, ast.Assign):
            step = len(node.targets) == 1 and cleared(node.value,
                                                      node.targets[0])
        else:
            step = (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "count"
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Name)
                    and node.func.value.func.id == "bin"
                    and [ast.unparse(a) for a in node.args] == ["'1'"])
        if step:
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_every_point_set_walk_goes_through_set_bits():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [f"{path.name}:{line} in {func}" for func, line in
                      hand_rolled_bit_walks(ast.parse(path.read_text()))
                      if (path.name, func) not in BIT_WALK_HELPER]
    assert not offenders


def test_the_scan_sees_hand_rolled_bit_walks():
    tree = ast.parse("def walk(e):\n"
                     "    rest = e\n"
                     "    while rest:\n"
                     "        x = (rest & -rest).bit_length() - 1\n"
                     "        rest &= rest - 1\n"
                     "    return -e & e\n"
                     "size = bin(s).count('1') + bin(s).count('0')\n"
                     "ok = e & -f, e & (e - 1), e & ~e, s.count('1')\n"
                     "self.m &= self.m - 1\n"
                     "m = m & (m - 1)\n"
                     "m &= m - 2; m = e & (m - 1); m &= -m\n"
                     "set_bits(e), e.bit_count(), e >> 1 & 1\n")
    assert hand_rolled_bit_walks(tree) == [
        ("walk", 4), ("walk", 5), ("walk", 6), (None, 7), (None, 9),
        (None, 10), (None, 11)]


# the point-set operations the net layer calls on its ground
GROUND_OPERATIONS = ("rational", "normalize", "closure", "union", "size",
                     "subset", "in_every_neighborhood", "show_sets")


def missing_ground_operations(cls):
    """The ground operations that ``cls`` neither defines nor inherits."""
    return [op for op in GROUND_OPERATIONS if not hasattr(cls, op)]


def test_every_ground_has_every_operation_the_nets_call():
    grounds = (FiniteSpace, FinitePseudoMetric, RationalPointSpace, CellGrid)
    assert {g.__name__: missing_ground_operations(g) for g in grounds} == {
        g.__name__: [] for g in grounds}
    # a metric ground also answers the semi-distance criteria
    assert [g.__name__ for g in grounds[1:]
            if not callable(getattr(g, "semidistance", None))] == []


def test_the_check_sees_a_missing_ground_operation():
    class NoClosure(BitmaskGround):
        normalize = in_every_neighborhood = BitmaskGround.subset

    assert missing_ground_operations(NoClosure) == ["closure"]
    assert missing_ground_operations(object) == list(GROUND_OPERATIONS)


# the empty-set conventions of the semi-distance, written once
CONVENTION = ("rationals.py", "semidistance_with")


def undefined_case_raises(tree):
    """(enclosing function, line) of each ``raise UndefinedCaseError``,
    called or not, plain or as a module attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else \
                exc.attr if isinstance(exc, ast.Attribute) else None
            if name == "UndefinedCaseError":
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def module_functions(tree, name):
    """Lines of each module-level function ``name`` in ``tree``."""
    return [node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name]


def test_the_semidistance_conventions_are_written_once():
    # every metric ground answers semidistance(a, b) as a method, and only
    # the convention function refuses d(emptyset; emptyset)
    raises, functions = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        raises += [f"{path.name}:{line} in {func}"
                   for func, line in undefined_case_raises(tree)
                   if (path.name, func) != CONVENTION]
        functions += [f"{path.name}:{line}"
                      for line in module_functions(tree, "semidistance")]
    assert raises == [] and functions == []


def test_the_scans_see_undefined_case_raises_and_semidistance_functions():
    tree = ast.parse("def semidistance(space, a, b):\n"
                     "    raise UndefinedCaseError('d(0; 0)')\n"
                     "class Grid:\n"
                     "    def semidistance(self, a, b):\n"
                     "        raise errors.UndefinedCaseError\n"
                     "raise UndefinedCaseErrorish()\n"
                     "def semidistance_with(a, b, farthest):\n"
                     "    raise UndefinedCaseError('undefined')\n")
    assert undefined_case_raises(tree) == [
        ("semidistance", 2), ("semidistance", 5), ("semidistance_with", 8)]
    assert module_functions(tree, "semidistance") == [1]


def float_offences(tree):
    """(what, line) of each float literal, ``float(...)`` call, true
    division, ``floor`` import or use, and mention of ``map_point`` in
    ``tree``.  ``INFINITY``, an imported name, is none of these."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            found.append((repr(node.value), node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(("float(", node.lineno))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            found.append(("/", node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(alias.name, node.lineno) for alias in node.names
                      if "floor" in alias.name.split(".")]
        else:
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef))
                    else node.arg if isinstance(node, ast.arg) else None)
            if name in ("floor", "map_point"):
                found.append((name, node.lineno))
    return found


def test_cell_sampling_computes_no_floats():
    # every sample is floored to its cell exactly, in integers
    tree = ast.parse((SRC / "semiflow_cells.py").read_text())
    assert float_offences(tree) == []


def test_the_scan_sees_floats_floors_and_map_points():
    tree = ast.parse("from math import floor, inf\n"
                     "import math, numpy.floor\n"
                     "x = 0.5 + 1e3 + 2j + INFINITY + math.inf + 7 // 2\n"
                     "c = math.floor(float(x) / 2)\n"
                     "c /= 2; c //= 2\n"
                     "def map_point(map_point): pass\n"
                     "flow.map_point, floor\n")
    assert sorted(float_offences(tree)) == sorted([
        ("floor", 1), ("numpy.floor", 2), ("0.5", 3), ("1000.0", 3),
        ("2j", 3), ("floor", 4), ("float(", 4), ("/", 4), ("/", 5),
        ("map_point", 6), ("map_point", 6), ("map_point", 7),
        ("floor", 7)])


def fractions_held(obj, path="m", seen=None):
    """Paths of each ``Fraction`` reachable from ``obj`` through instance
    attributes (``vars``) and the items of tuples, lists, sets and dicts."""
    seen = set() if seen is None else seen
    if isinstance(obj, Fraction):
        return [path]
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        items += [(f"{path} key {k!r}", k) for k in obj]
    elif isinstance(obj, (tuple, list)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    elif isinstance(obj, (set, frozenset)):
        items = [(f"{path} item", v) for v in obj]
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        items = [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    else:
        return []
    return [p for at, v in items for p in fractions_held(v, at, seen)]


def test_a_finite_metric_holds_no_fraction():
    # the integer matrix over its scale is the only matrix a metric keeps;
    # a Fraction is built only for a distance it returns, and the memos
    # its queries fill hold masks
    third = Fraction(1, 3)
    for m in (FinitePseudoMetric([[0, third, 1], [third, 0, 1],
                                  [1, 1, 0]]),
              FinitePseudoMetric.from_points([(0,), (third,), (0,)]),
              FinitePseudoMetric.from_points([])):
        for a in range(1 << m.n):
            m.closure(a), m.minimal_open_superset(a)
            for b in range(1 << m.n):
                if a or b:
                    m.semidistance(a, b)
        m.open_sets()
        assert fractions_held(m) == []


def test_the_scan_sees_fractions_held():
    m = FinitePseudoMetric([[0, 1], [1, 0]])
    m.dist = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    m.memo = {Fraction(1, 2): [{Fraction(2)}], "x": m}
    m.inner = FinitePseudoMetric([[0]])
    m.inner.kept = [Fraction(3)]
    assert sorted(fractions_held(m)) == sorted([
        "m.dist[0][0]", "m.dist[0][1]", "m.dist[1][0]", "m.dist[1][1]",
        "m.memo key Fraction(1, 2)", "m.memo[Fraction(1, 2)][0] item",
        "m.inner.kept[0]"])


def unpacked_generators(tree):
    """Lines of each call that unpacks a generator expression into its
    arguments: CPython builds that argument tuple at a guessed length and
    resizes it, which strands tuples in the interpreter's free lists, so
    ``math.lcm`` and ``math.gcd`` unpack a list."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for arg in node.args if isinstance(arg, ast.Starred)
            and isinstance(arg.value, ast.GeneratorExp)]


def test_no_call_unpacks_a_generator():
    assert {path.name: unpacked_generators(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))} == {
        path.name: [] for path in sorted(SRC.glob("*.py"))}


def test_the_scan_sees_unpacked_generators():
    tree = ast.parse("math.lcm(*(x.denominator for x in row))\n"
                     "math.gcd(*[v for v in row], *row)\n"
                     "f(a, *(b for b in c), d)\n"
                     "g((b for b in c))\n")
    assert unpacked_generators(tree) == [1, 3]


RANDOM_WRAPPERS = {"choice", "randint", "randrange", "random"}


def random_wrapper_calls(tree):
    """Lines of each ``.choice``, ``.randint``, ``.randrange`` or ``.random``
    attribute, called there or bound for a later call: every draw goes
    through ``theoremlab._pick`` or the coordinate draw beside it, both on
    ``rng.getrandbits``, so that the draws stay one exact route, bit for
    bit with these wrappers."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in RANDOM_WRAPPERS)


def test_every_draw_goes_through_the_getrandbits_kernel():
    assert {path.name: random_wrapper_calls(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))} == {
        path.name: [] for path in sorted(SRC.glob("*.py"))}


def test_the_scan_sees_random_wrapper_calls():
    tree = ast.parse("dim = rng.choice((1, 2))\n"
                     "n = rng.randint(0, 2)\n"
                     "x = _pick(rng, DIMS) + rng.getrandbits(3)\n"
                     "i = self.rng.randrange(7)\n"
                     "u = random.random()\n"
                     "rng = random.Random(seed)\n"
                     "choice = rng.choice\n"
                     "choice(seq)\n")
    assert random_wrapper_calls(tree) == [1, 2, 4, 5, 7]


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def module_constant(tree, name):
    """The literal value of the module-level assignment to ``name``, or
    None when the module assigns no such name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_benchmarked_suite_is_registered():
    # the benchmark runs `verify --suite <name>` by name, and an unknown
    # name exits 2; read its list without importing or editing it
    names = module_constant(ast.parse(WORKLOADS.read_text()), "VERIFY_SUITES")
    assert names and set(names) <= set(SUITES)


def test_the_scan_sees_benchmarked_suites():
    tree = ast.parse("def f():\n    VERIFY_SUITES = ('inner',)\n"
                     "X = 1\nVERIFY_SUITES = ('a',\n                 'b')\n")
    assert module_constant(tree, "VERIFY_SUITES") == ("a", "b")
    assert module_constant(tree, "Y") is None


TRACING = WORKLOADS.parent / "tracing.py"
# the layers a traced run reports missing: functions that moved onto a
# ground or left the package, which the benchmark's own change renames
UNTRACED_LAYERS = {
    "semiflow_cells.cellset_semidistance",
    "pseudometric_core.FinitePseudoMetric.semidistance_masks",
    "pseudometric_core.FinitePseudoMetric.open_sets",
    "pseudometric_core.point_set_distance",
    "pseudometric_core.semidistance",
    "pseudometric_core.kuratowski_limits",
}


def traced_layers(tree):
    """(module, qualname, metric name) of each entry of the module-level
    ``LAYERS`` list: a ``Layer(module, qualname, ...)`` call, or a starred
    ``_layers(module, "qualname qualname ...", ...)`` call; the metric name
    is the ``label`` keyword, else ``module.qualname``."""
    entries = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
            entries = node.value.elts
    found = []
    for entry in entries:
        call = entry.value if isinstance(entry, ast.Starred) else entry
        module, names = (ast.literal_eval(a) for a in call.args[:2])
        label = next((ast.literal_eval(k.value) for k in call.keywords
                      if k.arg == "label"), None)
        found += [(module, q, label or f"{module}.{q}") for q in names.split()]
    return found


def resolves(module, qualname):
    """Whether the tracer finds something to wrap, by its own rule: the
    class dict of ``Owner`` holds ``attr`` as a function or a classmethod,
    or the module binds the plain name to a plain function."""
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        return isinstance(raw, classmethod) or inspect.isfunction(raw)
    return inspect.isfunction(getattr(module, attr, None))


def test_every_traced_layer_but_the_known_gaps_resolves():
    # the benchmark names a per-layer metric for every entry of LAYERS; a
    # refactor that turns one into a staticmethod, a property or a moved
    # name drops it from the benchmark's view without failing a run
    layers = traced_layers(ast.parse(TRACING.read_text()))
    missing = {name for module, qualname, name in layers
               if not resolves(importlib.import_module(
                   f"limitset_lab.{module}"), qualname)}
    assert layers and missing == UNTRACED_LAYERS


def test_the_scan_sees_traced_layers_and_what_they_resolve_to():
    tree = ast.parse("def f():\n    LAYERS = [Layer('x', 'inner')]\n"
                     "LAYERS: List[Layer] = [\n"
                     "    Layer('m', 'f', counter=('m.f.n', _n)),\n"
                     "    *_layers('m', 'C.method ' 'C.build C.make'),\n"
                     "    Layer('m', 'C.prop', label='m.C.p'),\n"
                     "    *_layers('m', 'gone size C.gone Gone.x'),\n"
                     "]\n")
    layers = traced_layers(tree)
    assert [name for _, _, name in layers] == [
        "m.f", "m.C.method", "m.C.build", "m.C.make", "m.C.p", "m.gone",
        "m.size", "m.C.gone", "m.Gone.x"]

    class C:
        def method(self):
            pass

        @classmethod
        def build(cls):
            pass

        @staticmethod
        def make():
            pass

        @property
        def prop(self):
            pass

    def f():
        pass

    module = types.ModuleType("m")
    module.f, module.size, module.C, module.Gone = f, len, C, object()
    assert [name for _, qualname, name in layers
            if not resolves(module, qualname)] == [
        "m.C.make", "m.C.p", "m.gone", "m.size", "m.C.gone", "m.Gone.x"]
