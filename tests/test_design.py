"""Structural checks on the package source."""

import ast
from pathlib import Path

import limitset_lab

SRC = Path(limitset_lab.__file__).parent
RULES = {"Periodic", "AffineEscape", "GeometricConverge"}
# the wire format names each rule kind; the horizon oracle answers
# periodic tails only
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


def wire_format_offences(tree, name):
    """(what, line) of each ``json`` import in module ``name`` (bar
    ``jsonio.py``) and of each ``_``-prefixed name it imports."""
    found = []
    for node in ast.walk(tree):
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
    # every JSON shape is read and written in one place, and no module
    # reaches into another's private helpers
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
                     "import jsonio\n")
    assert wire_format_offences(tree, "cli.py") == [
        ("json", 1), ("json", 2), ("json.decoder", 3), ("_set_bits", 4)]
    assert wire_format_offences(tree, "jsonio.py") == [("_set_bits", 4)]
