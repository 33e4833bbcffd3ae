"""Command-line interface.

Subcommands: trees (enumeration), em (cell census / homology of K(pi,n)),
count (Fibonacci counts / Euler characteristic), verify (invariant
suites); em homology --oracle checks the Betti numbers against Serre's
Poincare series of K(pi,n) at every level.  Exit codes: 0 success (also
when the reader closes stdout early), 1 verification mismatch, 2 usage
error, 3 memory cap exceeded or input too deep.

Each command imports the modules it runs when it runs, so a query loads
and compiles only those; only --format json loads json.

Every command writes its stdout through _write_lines, which joins up to
BLOCK_LINES lines into one write: stdout may be unbuffered
(PYTHONUNBUFFERED) or line-buffered (a terminal), and there each write is
a system call.  A listing streams one block at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

# the names of verify.SUITES, in its order, for --suite without loading verify
SUITE_NAMES = ("wreath-laws", "factorization", "gamma-functor", "chain", "counts")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# the most lines one stdout write carries, which bounds a listing's buffer
BLOCK_LINES = 4096


def _write_lines(lines) -> None:
    """Write the lines to stdout, each ended by a newline, BLOCK_LINES to a
    write.  writelines would not do: unbuffered, it writes each line."""
    lines = iter(lines)
    while block := list(islice(lines, BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))


def _emit_table(header: tuple[str, str], rows: list[tuple], fmt: str) -> None:
    if fmt == "json":
        import json

        _write_lines([json.dumps([dict(zip(header, row)) for row in rows])])
    else:
        _write_lines([",".join(header), *(",".join(map(str, row)) for row in rows)])


def cmd_trees(args) -> int:
    from .trees import bracket, iter_forests

    _write_lines(map(bracket, iter_forests(args.n, args.edges, args.pruned, bracket)))
    return EXIT_OK


def cmd_em(args) -> int:
    from .presheaf import em_cell_count, em_chains, homology_f2, oracle_multisimplicial

    if args.em_command == "cells":
        rows = [(d, em_cell_count(args.group, args.n, d)) for d in range(args.max_dim + 1)]
        _emit_table(("dimension", "count"), rows, args.format)
        return EXIT_OK
    # homology: degree d needs the boundary in degree d+1
    complex_ = em_chains(args.group, args.n, args.max_dim)
    betti = [homology_f2(complex_, d) for d in range(args.max_dim)]
    if args.oracle:
        expected = oracle_multisimplicial(args.group, args.n, args.max_dim)
        for d, (ours, want) in enumerate(zip(betti, expected)):
            if ours != want:
                print(
                    f"homology mismatch in degree {d}: {ours} != oracle {want}",
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
    rows = list(enumerate(betti))
    _emit_table(("degree", "betti_f2"), rows, args.format)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.count_command == "fib":
        from .counting import fib_numbers

        values = fib_numbers(args.n, args.order, args.terms - 1)
        _emit_table(("k", "f"), list(enumerate(values)), args.format)
        return EXIT_OK
    from fractions import Fraction

    from .counting import euler_char

    value = euler_char(args.n, args.order)
    _write_lines([str(value)])
    expected = Fraction(args.order) ** (1 if args.n % 2 == 0 else -1)
    if value != expected:
        print(f"euler characteristic {value} != {expected}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, args.seed)
    failed = sum(not ok for _, ok, _ in checks)
    _write_lines([
        *(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})" for name, ok, detail in checks),
        f"{len(checks) - failed}/{len(checks)} checks passed",
    ])
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def _int_at_least(low: int):
    """An argparse type: an integer that is at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def parse_group(spec: str):
    """The --group type, gamma.parse_group; argparse names it in its error."""
    from . import gamma

    return gamma.parse_group(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacomb",
        description="Exact wreath-product combinatorics and EM cell models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="enumerate level-trees")
    p_trees.add_argument("--n", type=_int_at_least(0), required=True,
                         help="height bound")
    p_trees.add_argument("--edges", type=_int_at_least(0), required=True)
    p_trees.add_argument("--pruned", action="store_true",
                         help="only trees with all leaves at height n")
    p_trees.set_defaults(func=cmd_trees, parser=p_trees)

    p_em = sub.add_parser("em", help="Eilenberg-MacLane cell model")
    em_sub = p_em.add_subparsers(dest="em_command", required=True)
    for name in ("cells", "homology"):
        p = em_sub.add_parser(name)
        p.add_argument("--n", type=_int_at_least(1), required=True,
                       help="level")
        p.add_argument("--group", type=parse_group, required=True,
                       help='e.g. "z2", "z2xz4"')
        p.add_argument("--max-dim", type=_int_at_least(0), required=True,
                       dest="max_dim")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "homology":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against Serre's Poincare series")
        p.set_defaults(func=cmd_em)

    p_count = sub.add_parser("count", help="Fibonacci counts and Euler characteristic")
    count_sub = p_count.add_subparsers(dest="count_command", required=True)
    p_fib = count_sub.add_parser("fib")
    p_fib.add_argument("--n", type=_int_at_least(1), required=True)
    p_fib.add_argument("--order", type=_int_at_least(2), required=True,
                       help="group order p")
    p_fib.add_argument("--terms", type=_int_at_least(1), default=6)
    p_fib.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fib.set_defaults(func=cmd_count)
    p_euler = count_sub.add_parser("euler")
    p_euler.add_argument("--n", type=_int_at_least(1), required=True)
    p_euler.add_argument("--order", type=_int_at_least(2), required=True)
    p_euler.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument(
        "--suite", required=True, choices=sorted(SUITE_NAMES) + ["all"]
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _apply_memory_cap() -> None:
    """Cap the address space at THETA_MAX_MEM_MB megabytes when it is set;
    ValueError if it is not a positive integer the system accepts."""
    cap = os.environ.get("THETA_MAX_MEM_MB")
    if not cap:
        return
    import resource

    try:
        megabytes = int(cap)
        if megabytes < 1:
            raise ValueError
        limit = megabytes * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OverflowError):
        raise ValueError(
            f"THETA_MAX_MEM_MB must be a positive integer of megabytes "
            f"within the system limit, got {cap!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "trees" and args.pruned and args.n < 1:
            args.parser.error("--pruned needs --n >= 1")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_memory_cap()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MemoryError:
        print("memory cap exceeded (THETA_MAX_MEM_MB)", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except RecursionError:
        print("input too deep: Python's recursion limit was exceeded", file=sys.stderr)
        return EXIT_UNSUPPORTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
