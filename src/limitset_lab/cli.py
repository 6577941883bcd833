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
The parsers are built once per process, on first use.  A call whose first
argument names a command is read for that command alone, whose ``cmd``
default names its ``cmd_*`` function.  Canonical argv (the positionals
first, then each flag once by its full name, a value in the next token and
not starting with ``-``, every value valid and every required flag given)
is read straight off the actions the command's subparser was built from;
argparse reads everything else (``--help``, abbreviations, ``--flag=value``,
``--out -``, repeats, every usage error) and gives the same ``Namespace``,
so it alone writes help and usage-error text.  ``--help``, a missing and
an unknown command go through the top-level parser.  ``net analyze`` echoes
``--horizon`` without reading it, since every verdict is exact.  ``space
check`` refuses the brute-force ``regular`` above ``REGULARITY_CAP``
points, and ``omega`` a ``--samples`` above ``MAX_SAMPLES``; ``--map
table`` refuses ``--param``, ``--param2``, ``--samples`` and ``--dilate``.
``verify`` writes one summary line per suite (instances, violations,
exhibits and seconds) to stdout, or to stderr when the report goes to
stdout.  An ``--out`` file is written in place through its file
descriptor and cut to the written length, never truncated to zero first,
so a crash or a concurrent reader can see old and new bytes mixed; a
target that is not a regular file (``/dev/null``, a FIFO) is written
without truncation.  Evaluation is sequential, and identical argv and
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
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
    reports them as one bounded line; subparsers inherit the class.  The
    top-level parser's ``commands`` maps each command to its subparser, and
    ``readers`` to its canonical-argv reader."""

    def error(self, message):
        raise MalformedInputError(clip(message))


def _ascii_int(raw: str) -> int:
    """An integer flag in ASCII digits; int() also takes "1_6", " 16", "+2"."""
    try:
        if re.fullmatch("-?[0-9]+", raw):
            return int(raw)
    except ValueError:  # more digits than int() reads
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="limitset-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    arguments = {}  # command -> the actions its add_argument calls returned

    p = sub.add_parser("space", help="finite-space property checks")
    p.set_defaults(cmd="cmd_space")
    arguments["space"] = [
        p.add_argument("action", choices=["check"]),
        p.add_argument("--props", default="hausdorff,regular,pseudometrizable"),
        p.add_argument("--in", dest="infile", required=True),
        p.add_argument("--out", default="-")]

    p = sub.add_parser("net", help="net analysis")
    p.set_defaults(cmd="cmd_net")
    arguments["net"] = [
        p.add_argument("action", choices=["analyze"]),
        p.add_argument("--in", dest="infile", required=True),
        p.add_argument("--horizon", type=_ascii_int, default=64),
        p.add_argument("--out", default="-")]

    p = sub.add_parser("omega", help="omega limit sets on a cell grid")
    p.set_defaults(cmd="cmd_omega")
    arguments["omega"] = [
        p.add_argument("--map", dest="map_kind", required=True,
                       choices=["logistic", "tent", "rotation", "henon",
                                "table"]),
        p.add_argument("--param", default=None),
        p.add_argument("--param2", default=None),
        p.add_argument("--cells", type=_ascii_int, required=True),
        p.add_argument("--init", default="all"),
        p.add_argument("--in", dest="infile", default=None,
                       help="cell table JSON for --map table"),
        p.add_argument("--samples", type=_ascii_int,
                       default=None),  # 1 when absent
        p.add_argument("--dilate", action="store_true"),
        p.add_argument("--out", default="-")]

    p = sub.add_parser("verify", help="run the theorem verification suites")
    p.set_defaults(cmd="cmd_verify")
    arguments["verify"] = [
        p.add_argument("--suite", default="all"),
        p.add_argument("--budget", type=_ascii_int, default=1000),
        p.add_argument("--seed", type=_ascii_int, default=42),
        p.add_argument("--out", default="-")]
    parser.commands = sub.choices
    parser.readers = {name: _canonical_reader(sub.choices[name], actions)
                      for name, actions in arguments.items()}
    return parser


def _canonical_reader(command: argparse.ArgumentParser, actions):
    """A function from a command's argv (after the command name) to the
    ``Namespace`` that ``command.parse_args`` returns, or ``None`` where
    the argv is not canonical and argparse must read it.  ``actions`` are
    every action added to ``command`` but its help, and they are the only
    flag table: argv is canonical when the positionals come first, then
    each flag once by an exact option string, a flag that takes a value
    followed by a string not starting with ``-``, every type and choice
    valid and every required flag present.  Each value goes through its
    action as argparse would apply it, so ``store_true`` sets its
    ``const``.  The reader knows flags of one value (``nargs`` None) or
    none (``nargs`` 0) with plain defaults, the only shapes built here."""
    positionals = [a for a in actions if not a.option_strings]
    options = {flag: a for a in actions for flag in a.option_strings}
    required = {a for a in actions if a.required and a.option_strings}
    defaults = {a.dest: a.default for a in actions}
    defaults["cmd"] = command.get_default("cmd")

    def store(action, flag, raw, ns) -> bool:
        """Apply one value as argparse would; False if it must not."""
        if not isinstance(raw, str) or raw.startswith("-"):
            return False
        try:
            value = raw if action.type is None else action.type(raw)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return False  # the errors argparse reports for a type
        if action.choices is not None and value not in action.choices:
            return False
        action(command, ns, value, flag)
        return True

    def read(args):
        ns = argparse.Namespace(**defaults)
        tokens = iter(args)
        for action in positionals:  # "-" stands for a missing positional
            if not store(action, None, next(tokens, "-"), ns):
                return None
        seen = set()
        for flag in tokens:
            action = options.get(flag)
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:
                action(command, ns, [], flag)
            elif not store(action, flag, next(tokens, "-"), ns):
                return None
        return ns if required <= seen else None
    return read


def _write(path: str, text: str):
    """Write ``text`` to ``path``, or to stdout for ``-``.  The file is
    written in place through its descriptor until every byte is in (a
    pipe can take a short write), and then cut to length, never truncated
    to zero first: on ext4 and XFS closing a file truncated to zero starts
    its writeback, which every request would wait on.  The price is crash consistency: a
    crash during the write, or a reader that opens the file meanwhile, can
    see the old bytes, new and old bytes mixed, or the old content cut to
    the new length, where a file truncated first held nothing or the new
    output.  A target that is not a regular file (``/dev/null``, a FIFO, a
    terminal) is written without truncation."""
    if path == "-":
        sys.stdout.write(text)
        return
    data = text.encode()  # every output is ASCII, so the bytes are unchanged
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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


# the characters of a --init cell list: int() alone also takes "1_0", " 1",
# "+1" and "\u0663", and refuses an empty index.  A repeated group such as
# "[0-9]+(,[0-9]+)*" would hold a backtracking stack of about 180 B per index.
_CELL_CHARS = re.compile("[0-9,]+")


def _first_bad_cell(body: str, total: int) -> MalformedInputError:
    """The error for the first bad index of a ``cell:`` body, in order: not
    ASCII digits, more digits than int() reads, or outside the grid."""
    for part in body.split(","):
        if not (part.isascii() and part.isdigit()):
            break
        try:
            i = int(part)
        except ValueError:  # more digits than int() reads
            break
        if i >= total:
            return MalformedInputError(f"cell {excerpt(i)} outside the grid")
    return MalformedInputError(f"bad cell index in --init: {excerpt(part)}")


def _parse_init(raw: str, grid: CellGrid) -> int:
    if raw == "all":
        return grid.full_mask
    if raw.startswith("cell:") or raw.startswith("cells:"):
        body = raw.split(":", 1)[1]
        # one bit per cell in a bytearray, read as one int at the end:
        # OR-ing 1 << i into a grid-sized int copies it for every index
        bits = bytearray((grid.total + 7) >> 3)
        if _CELL_CHARS.fullmatch(body):
            # int() refuses an empty index and a run past its digit limit;
            # an index past the last byte raises IndexError
            try:
                for i in map(int, body.split(",")):
                    bits[i >> 3] |= 1 << (i & 7)
            except (ValueError, IndexError):
                pass
            else:
                mask = int.from_bytes(bits, "little")
                if not mask >> grid.total:
                    return mask
        raise _first_bad_cell(body, grid.total)
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

    # the bytes csv.writer's excel dialect writes: ints by str, floats
    # (inf included) by repr, no quoting, CRLF line ends
    rows = ["n,cells,distance\r\n"]
    rows += [f"{n},{count},{float(d)!r}\r\n"
             for (n, d), count in zip(result.trace, result.sizes)]
    trace = "".join(rows)
    summary = jsonio.omega_summary_to_json(result)
    if args.out == "-":
        sys.stdout.write(trace)
        sys.stderr.write(jsonio.dumps_canonical(summary))
    else:
        _write(args.out, trace)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        # a known command is read for itself: canonical argv off its
        # actions, the rest by its subparser, which writes every help and
        # error; --help, a missing and an unknown command go through the
        # top-level parser
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = parser.readers[argv[0]](argv[1:])
            if args is None:
                args = command.parse_args(argv[1:])
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
