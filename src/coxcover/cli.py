"""Command-line front end.

Groups are named "S<n>" (symmetric), "I<m>" (dihedral of order 2m) or
"matrix:<path>" where the file holds {"rank": r, "m": [[...]], "element_cap": c};
it must be a regular file of at most 1 MB.
Subsets are comma-separated 1-based generator indices; the empty string is
the empty set, and s/t alias 1/2 in every group.

`table` computes every product before it prints anything, so a failing
product leaves stdout empty; its rows are `CoveringInstance.row` dicts.
`cover` prints the first of the witnesses `verify_covering` returns, and
`monodromy` the document `monodromy_report` returns, as they are.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 element cap
exceeded, 141 (128 + SIGPIPE) when the reader closes stdout early, as in
`coxcover table --group S6 | head`.

A process ends in `run`: it flushes stdout, then stderr, and leaves
through `os._exit`, skipping interpreter finalization (freeing the Cayley
tables and caches one object at a time); atexit handlers registered by
other code therefore do not run.  No child process outlives it: `verify`
sweeps through `fanout.fan_out`, which reaps every worker it forks before
it returns or raises, so before `os._exit`.  Under a tracer or profiler
(a debugger, coverage, `python -m cProfile`) `run` returns the exit code
instead, so they can write their results at exit.  `main` never exits
the process.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys as _sys

from .algebra import expansion_rows, table_json
from .coxeter import CoxeterSpec, CoxeterSystem, DEFAULT_ELEMENT_CAP, _decimal, build_system
from .covering import build_fibered_graph, multiplicity_partition, verify_covering
from .dot import covering_dot
from .errors import CapExceeded, CoxeterError, InvalidSpec
from .gensets import _echo, format_subset, iter_subsets, one_based, parse_subset
from .monodromy import monodromy_report
from .verify import run_invariant_sweep

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what shells report for `cat` in that case

# a Coxeter matrix under any element cap is a few kilobytes
MATRIX_FILE_LIMIT = 1 << 20
# bytes of a path or group text that an error echoes in full; past that it
# is shortened, so that every error stays one line of at most 200 bytes
ECHO_WIDTH = 48


class UsageError(Exception):
    pass


def parse_group(text: str, cap: int | None) -> CoxeterSpec:
    cap_value = DEFAULT_ELEMENT_CAP if cap is None else cap
    # ASCII digits only: str.isdigit also accepts superscripts, which int() refuses
    number = text[1:]
    if text[:1] in ("S", "I") and number.isascii() and number.isdigit():
        try:
            value = int(number)
        # int() refuses more digits than sys.get_int_max_str_digits()
        except ValueError as exc:
            raise UsageError(f"cannot read the parameter of group {text[0]}: {exc}") from None
        if text[0] == "S":
            return CoxeterSpec.symmetric(value, element_cap=cap_value)
        return CoxeterSpec.dihedral(value, element_cap=cap_value)
    if text.startswith("matrix:"):
        data = _read_matrix(text[len("matrix:"):])
        spec = CoxeterSpec.from_matrix(
            data["m"], element_cap=data.get("element_cap", DEFAULT_ELEMENT_CAP))
        rank = data.get("rank")
        if rank is not None and (type(rank) is not int or rank != spec.rank):
            if type(rank) is int:
                shown = _decimal(rank) if rank >= 0 else "-" + _decimal(-rank)
            else:  # a string shortened, an array or object not echoed
                shown = (_echo(rank, ECHO_WIDTH) if type(rank) is str
                         else {list: "[...]", dict: "{...}"}.get(type(rank), repr(rank)))
            raise UsageError(f"declared rank {shown} does not match the matrix")
        return spec if cap is None else spec._replace(element_cap=cap)
    raise UsageError(f"cannot parse group {_echo(text, ECHO_WIDTH)} "
                     "(expected S<n>, I<m> or matrix:<path>)")


def _read_matrix(path: str) -> dict:
    """The JSON object in a matrix file, with an 'm' entry.  The file is
    opened without blocking, so a FIFO with no writer cannot hang the open;
    anything but a regular file is refused before a byte is read, and so is
    a file over MATRIX_FILE_LIMIT bytes.  Every refusal is one short line."""
    shown = _echo(path, ECHO_WIDTH)
    try:
        with os.fdopen(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise UsageError(f"matrix file {shown} is not a regular file")
            raw = fh.read(MATRIX_FILE_LIMIT + 1)
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {shown}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL in the path
        raise UsageError(f"cannot read matrix file {shown}: {exc}") from None
    if len(raw) > MATRIX_FILE_LIMIT:
        raise UsageError(f"matrix file {shown} is over {MATRIX_FILE_LIMIT} bytes")
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        reason = f"byte {exc.start} is not UTF-8"
    except RecursionError:
        reason = "nested too deeply"
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg} at character {exc.pos}"
    except ValueError:  # an integer literal past sys.get_int_max_str_digits()
        reason = "an integer has too many digits"
    else:
        if not isinstance(data, dict):
            raise UsageError(f"matrix file {shown} must hold a JSON object")
        if "m" not in data:
            raise UsageError(f"matrix file {shown} has no 'm' entry")
        return data
    raise UsageError(f"cannot decode matrix file {shown}: {reason}")


def _build(args) -> CoxeterSystem:
    return build_system(parse_group(args.group, args.cap))


def _subset(text: str, rank: int) -> int:
    try:
        return parse_subset(text, rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _instance(args):
    """The instance that --group, --left, --right and --target name."""
    system = _build(args)
    left, right, target = (_subset(text, system.rank)
                           for text in (args.left, args.right, args.target))
    return build_fibered_graph(system, left, right, target)


def _braced(numbers: list[int]) -> str:
    """A serialized (1-based) subset as text: [1, 3] -> "{1,3}"."""
    return "{%s}" % ",".join(map(str, numbers))


def cmd_table(args) -> int:
    system = _build(args)
    rank = system.rank
    every = sorted(iter_subsets(rank), key=one_based)
    lefts = every if args.left is None else [_subset(args.left, rank)]
    rights = every if args.right is None else [_subset(args.right, rank)]
    # only what will be printed is held: the rows for JSON, the lines for text
    as_json = args.format == "json"
    held: list = []
    for left in lefts:
        for right in rights:
            rows = expansion_rows(system, left, right)
            if as_json:
                held += rows
                continue
            terms = (("" if row["a"] == 1 else f"{row['a']} ") + f"Y_{_braced(row['K'])}"
                     for row in rows)
            held.append(f"Y_{format_subset(left)} * Y_{format_subset(right)} = "
                        + " + ".join(terms))
            held += [f"  K={_braced(row['K'])} a={row['a']} lambda={row['lambda']} "
                     f"components={row['components']}" for row in rows]
    print(json.dumps(table_json(system, held)) if as_json else "\n".join(held))
    return EXIT_OK


def cmd_cover(args) -> int:
    inst = _instance(args)
    witnesses = verify_covering(inst)
    if args.dot:
        try:
            # a FIFO with no reader fails the non-blocking open (ENXIO)
            # instead of hanging it; writes block as usual once it is open
            fd = os.open(args.dot, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
            os.set_blocking(fd, True)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(covering_dot(inst))
        except OSError as exc:
            raise UsageError(f"cannot write DOT file {_echo(args.dot, ECHO_WIDTH)}: "
                             f"{exc.strerror}") from None
    if args.format == "json":
        print(json.dumps(inst.to_json()))
        if witnesses:
            print(f"invariant failure: covering axioms failed: {witnesses[0]}",
                  file=_sys.stderr)
            return EXIT_INVARIANT
        return EXIT_OK
    parts = list(multiplicity_partition(inst))
    print(f"Z(I={format_subset(inst.left)} J={format_subset(inst.right)} "
          f"K={format_subset(inst.target)}) vertices={len(inst.vertices)} "
          f"components={inst.component_count} a={inst.fiber_size} lambda={parts}")
    if inst.is_empty:
        print("empty instance: no product lands in the target class")
    elif witnesses:
        print(f"covering axioms FAILED: {witnesses[0]}")
        return EXIT_INVARIANT
    else:
        print("covering axioms: ok")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    print(json.dumps(monodromy_report(_instance(args))))
    return EXIT_OK


def cmd_verify(args) -> int:
    system = _build(args)
    print(f"group {system.spec.describe()}: {len(system)} elements, rank {system.rank}")
    results = run_invariant_sweep(system)
    failed = False
    for res in results:
        if res.ok:
            print(f"{res.name}: ok ({res.checked} checks)")
        else:
            failed = True
            print(f"{res.name}: FAIL: {res.failures[0]}")
            break
    if failed:
        return EXIT_INVARIANT
    print(f"all checks passed ({sum(r.checked for r in results)} total)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coxcover", description=__doc__)
    parser.add_argument("--cap", type=int, default=None,
                        help="override the element cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="expand products of class sums")
    p_table.add_argument("--group", required=True)
    p_table.add_argument("--left", default=None)
    p_table.add_argument("--right", default=None)
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_cover = sub.add_parser("cover", help="build one covering instance")
    p_cover.add_argument("--group", required=True)
    p_cover.add_argument("--left", required=True)
    p_cover.add_argument("--right", required=True)
    p_cover.add_argument("--target", required=True)
    p_cover.add_argument("--dot", default=None, help="write the graph as DOT")
    p_cover.add_argument("--format", choices=("text", "json"), default="text")
    p_cover.set_defaults(func=cmd_cover)

    p_mono = sub.add_parser("monodromy", help="loop actions on one instance")
    p_mono.add_argument("--group", required=True)
    p_mono.add_argument("--left", required=True)
    p_mono.add_argument("--right", required=True)
    p_mono.add_argument("--target", required=True)
    p_mono.set_defaults(func=cmd_monodromy)

    p_verify = sub.add_parser("verify", help="run the full invariant sweep")
    p_verify.add_argument("--group", required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, InvalidSpec) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CAP
    except CoxeterError as exc:
        print(f"invariant failure: {exc}", file=_sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE


def _discard_stdout() -> None:
    """The reader is gone: point fd 1 at /dev/null, so that flushing what
    is still buffered does not fail a second time."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, _sys.stdout.fileno())
    os.close(devnull)


def _observed() -> bool:
    """True when a tracer or profiler is attached; it writes its results
    at exit, so the process must end normally."""
    if _sys.gettrace() is not None or _sys.getprofile() is not None:
        return True
    # from Python 3.12 cProfile registers through sys.monitoring, and
    # sys.getprofile() stays None
    monitoring = getattr(_sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def run(argv: list[str] | None = None) -> int:
    """Process entry point: `main`, then flush stdout and stderr and end
    the process with `os._exit`, without finalization.  A reader that left
    before the last flush gives exit 141, quietly.  Returns the code
    instead when a tracer or profiler is attached, or when flushing stdout
    failed otherwise (the interpreter's exit then reports the error)."""
    code = main(argv)
    try:
        if _sys.stdout is not None:
            _sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        code = EXIT_BROKEN_PIPE
    except OSError:
        return code
    if _sys.stderr is not None:
        _sys.stderr.flush()
    if _observed():
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
