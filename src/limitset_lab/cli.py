"""The limitset-lab command line.

    limitset-lab space check --props hausdorff,regular --in space.json
    limitset-lab net analyze --in net.json --horizon 64 --out analysis.json
    limitset-lab omega --map logistic --param 2.0 --cells 64 --init all --out trace.csv
    limitset-lab verify --suite all --budget 1000 --seed 42 --out report.json

Structures travel as JSON, traces as CSV; ``--out -`` streams to stdout.
Exit codes: 0 success, 1 verification violations, 2 input errors, each
input error (argument-parser usage errors included) reported as one
``limitset-lab:`` line on stderr.  One parser, built on first use, serves
every call in a process.  A net is indexed by a finite directed order or
by Z+; a ``product`` index is refused.  ``net analyze`` spells each
verdict ``{"state": "holds"}`` or ``{"state": "fails"}`` and echoes
``--horizon`` without reading it, since every verdict is exact.  ``space
check`` refuses the brute-force ``regular`` above ``REGULARITY_CAP``
points, and ``omega`` a ``--samples`` above ``MAX_SAMPLES``.  ``verify``
writes one summary line per suite (instances, violations, exhibits and
seconds) to stdout, or to stderr when the report goes to stdout.
Evaluation is sequential, and identical argv and inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction

from . import jsonio, theoremlab
from .errors import LimitsetError, MalformedInputError, clip, excerpt
from .finite_topology import (is_hausdorff, is_pseudometrizable, is_regular)
from .semiflow_cells import (MAX_SAMPLES, CellGrid, DiscreteSemiflow,
                             _set_bits, attraction_trace_check,
                             omega_limit_cells)
from .subset_nets import analyze

PROP_CHECKS = {
    "hausdorff": is_hausdorff,
    "regular": is_regular,
    "pseudometrizable": is_pseudometrizable,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, so ``run``
    reports them as one bounded line; subparsers inherit the class."""

    def error(self, message):
        raise MalformedInputError(clip(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="limitset-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="finite-space property checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--props", default="hausdorff,regular,pseudometrizable")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("net", help="net analysis")
    p.add_argument("action", choices=["analyze"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--out", default="-")

    p = sub.add_parser("omega", help="omega limit sets on a cell grid")
    p.add_argument("--map", dest="map_kind", required=True,
                   choices=["logistic", "tent", "rotation", "henon", "table"])
    p.add_argument("--param", default=None)
    p.add_argument("--param2", default=None)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--init", default="all")
    p.add_argument("--in", dest="infile", default=None,
                   help="cell table JSON for --map table")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--dilate", action="store_true")
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="run the theorem verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-")
    return parser


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _read_json(path: str):
    """Parse a UTF-8 JSON file.  Bad syntax, non-UTF-8 bytes, nesting past
    the recursion limit and over-long int literals are malformed input."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError(f"{path}: {exc}") from exc


def cmd_space(args) -> int:
    space = jsonio.finite_space_from_json(_read_json(args.infile))
    out = {}
    for prop in args.props.split(","):
        prop = prop.strip()
        if prop not in PROP_CHECKS:
            raise MalformedInputError(f"unknown property: {excerpt(prop)}")
        out[prop] = PROP_CHECKS[prop](space)
    _write(args.out, jsonio.dumps_canonical(out))
    return 0


def cmd_net(args) -> int:
    if args.horizon < 1:
        raise MalformedInputError("--horizon must be positive")
    net = jsonio.net_from_json(_read_json(args.infile))
    analysis = analyze(net)
    out = jsonio.analysis_to_json(net.ground, analysis)
    out["horizon"] = args.horizon
    _write(args.out, jsonio.dumps_canonical(out))
    return 0


def _parse_init(raw: str, grid: CellGrid) -> int:
    if raw == "all":
        return grid.full_mask
    if raw.startswith("cell:") or raw.startswith("cells:"):
        body = raw.split(":", 1)[1]
        mask = 0
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
            mask |= 1 << i
        return mask
    raise MalformedInputError(
        f"bad --init: {excerpt(raw)} (use all or cell:K)")


# --param/--param2 spellings: an ASCII decimal or an ASCII integer ratio;
# Fraction() alone also takes "1_0/7", " 3/2", "1e3" and non-ASCII digits
_PARAM = re.compile(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+")


def cmd_omega(args) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise MalformedInputError(
            f"--samples must be between 1 and {MAX_SAMPLES}")
    if args.map_kind == "table":
        if args.infile is None:
            raise MalformedInputError("--map table needs --in table.json")
        if args.param is not None or args.param2 is not None:
            raise MalformedInputError("--map table takes no --param or --param2")
        rows = _read_json(args.infile)
        if not isinstance(rows, list):
            raise MalformedInputError("cell table must be a list of cell lists")
        grid = CellGrid(1, args.cells)
        if len(rows) != grid.total:
            raise MalformedInputError("table size must match the grid")
        if not all(isinstance(row, list) and all(
                type(c) is int and 0 <= c < grid.total for c in row)
                for row in rows):
            raise MalformedInputError(
                "cell table rows must list cells of the grid")
        table = tuple(sum(1 << c for c in set(row)) for row in rows)
        flow = DiscreteSemiflow("table", table=table)
    else:
        if args.infile is not None:
            raise MalformedInputError(
                f"--in is read by --map table only, not --map {args.map_kind}")
        params = []
        for flag, raw in (("--param", args.param), ("--param2", args.param2)):
            if raw is not None:
                try:
                    if not _PARAM.fullmatch(raw):
                        raise ValueError("not an ASCII decimal or ratio")
                    params.append(Fraction(raw))
                except (ValueError, ZeroDivisionError):
                    raise MalformedInputError(f"{flag} must be a rational "
                                              f"number: {excerpt(raw)}")
        flow = DiscreteSemiflow(args.map_kind, tuple(params))
        grid = CellGrid(flow.dim, args.cells)
    init = _parse_init(args.init, grid)
    result = omega_limit_cells(grid, flow, init,
                               samples=args.samples, dilate=args.dilate)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "cells", "distance"])
    for (n, d), count in zip(result.trace, result.sizes):
        writer.writerow([n, count, float(d)])
    summary = {
        "omega": list(_set_bits(result.omega)),
        "preperiod": result.preperiod,
        "period": result.period,
        "attraction_trace_zero_from_preperiod": attraction_trace_check(result),
    }
    if args.out == "-":
        sys.stdout.write(buf.getvalue())
        sys.stderr.write(jsonio.dumps_canonical(summary))
    else:
        _write(args.out, buf.getvalue())
        sys.stdout.write(jsonio.dumps_canonical(summary))
    return 0


def cmd_verify(args) -> int:
    if args.budget < 1:
        raise MalformedInputError("--budget must be positive")
    if args.suite == "all":
        reports = theoremlab.run_all(budget=args.budget, seed=args.seed)
    else:
        reports = [theoremlab.run_suite(args.suite, budget=args.budget,
                                        seed=args.seed)]
    payload = {
        "budget": args.budget,
        "seed": args.seed,
        "suites": [theoremlab.report_to_dict(r) for r in reports],
    }
    text = jsonio.dumps_canonical(payload)
    _write(args.out, text)
    stream = sys.stderr if args.out == "-" else sys.stdout
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        stream.write(f"{status} {r.suite}: {r.instances} instances, "
                     f"{len(r.violations)} violations, "
                     f"{r.exhibit_count} exhibits "
                     f"({r.elapsed_seconds:.2f}s)\n")
    return 1 if any(not r.passed for r in reports) else 0


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "space":
            return cmd_space(args)
        if args.command == "net":
            return cmd_net(args)
        if args.command == "omega":
            return cmd_omega(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise MalformedInputError(f"unknown command: {args.command!r}")
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except (LimitsetError, OSError) as exc:
        sys.stderr.write(f"limitset-lab: {exc}\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
