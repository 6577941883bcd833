"""The limitset-lab command line.

    limitset-lab space check --props hausdorff,regular --in space.json
    limitset-lab net analyze --in net.json --horizon 64 --out analysis.json
    limitset-lab omega --map logistic --param 2.0 --cells 64 --init all --out trace.csv
    limitset-lab verify --suite all --budget 1000 --seed 42 --out report.json

This module parses argv, checks the flag grammar (``--param``, ``--init``,
which flags a map reads), writes the ``omega`` trace CSV and routes each
output to its stream; ``jsonio`` reads every JSON input and shapes every
JSON output.  ``--out -`` streams to stdout.  Exit codes: 0 success, 1
verification violations, 2 input errors, each input error (argument-parser
usage errors included) reported as one ``limitset-lab:`` line on stderr.
One parser, built on first use, serves every call in a process; each
subcommand names its ``cmd_*`` function.  ``net analyze`` echoes
``--horizon`` without reading it, since every verdict is exact.  ``space
check`` refuses the brute-force ``regular`` above ``REGULARITY_CAP``
points, and ``omega`` a ``--samples`` above ``MAX_SAMPLES``; ``--map
table`` refuses ``--param``, ``--param2``, ``--samples`` and ``--dilate``.
``verify`` writes one summary line per suite (instances, violations,
exhibits and seconds) to stdout, or to stderr when the report goes to
stdout.  Evaluation is sequential, and identical argv and inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import re
import sys
from fractions import Fraction

from . import jsonio, theoremlab
from .errors import LimitsetError, MalformedInputError, clip, excerpt
from .finite_topology import (is_hausdorff, is_pseudometrizable, is_regular)
from .semiflow_cells import (MAX_SAMPLES, CellGrid, DiscreteSemiflow,
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
    p.set_defaults(cmd="cmd_space")
    p.add_argument("action", choices=["check"])
    p.add_argument("--props", default="hausdorff,regular,pseudometrizable")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("net", help="net analysis")
    p.set_defaults(cmd="cmd_net")
    p.add_argument("action", choices=["analyze"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--out", default="-")

    p = sub.add_parser("omega", help="omega limit sets on a cell grid")
    p.set_defaults(cmd="cmd_omega")
    p.add_argument("--map", dest="map_kind", required=True,
                   choices=["logistic", "tent", "rotation", "henon", "table"])
    p.add_argument("--param", default=None)
    p.add_argument("--param2", default=None)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--init", default="all")
    p.add_argument("--in", dest="infile", default=None,
                   help="cell table JSON for --map table")
    p.add_argument("--samples", type=int, default=None)  # 1 when absent
    p.add_argument("--dilate", action="store_true")
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="run the theorem verification suites")
    p.set_defaults(cmd="cmd_verify")
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


def cmd_space(args) -> int:
    space = jsonio.finite_space_from_json(jsonio.read_json(args.infile))
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
    net = jsonio.net_from_json(jsonio.read_json(args.infile))
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
    samples = 1 if args.samples is None else args.samples
    if not 1 <= samples <= MAX_SAMPLES:
        raise MalformedInputError(
            f"--samples must be between 1 and {MAX_SAMPLES}")
    if args.map_kind == "table":
        if args.infile is None:
            raise MalformedInputError("--map table needs --in table.json")
        if args.param is not None or args.param2 is not None:
            raise MalformedInputError("--map table takes no --param or --param2")
        if args.samples is not None or args.dilate:
            raise MalformedInputError("--map table takes no --samples or --dilate")
        grid = CellGrid(1, args.cells)
        flow = jsonio.cell_table_from_json(jsonio.read_json(args.infile), grid)
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
                               samples=samples, dilate=args.dilate)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "cells", "distance"])
    for (n, d), count in zip(result.trace, result.sizes):
        writer.writerow([n, count, float(d)])
    summary = jsonio.omega_summary_to_json(result)
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
    _write(args.out, jsonio.dumps_canonical(
        jsonio.verify_to_json(args.budget, args.seed, reports)))
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
        # looked up by name on each call, not bound into the cached parser,
        # so a wrapper later bound over a cmd_* (perfbench's tracing) sees it
        return globals()[args.cmd](args)
    except SystemExit as exc:  # only --help exits, after printing the help
        return exc.code
    except (LimitsetError, OSError) as exc:
        sys.stderr.write(f"limitset-lab: {exc}\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
