"""Command-line interface.

Subcommands: trees (enumeration), em (cell census / homology of K(pi,n)),
count (Fibonacci counts / Euler characteristic), verify (invariant
suites).  Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 unsupported configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .counting import euler_char, fib_numbers
from .gamma import parse_group
from .presheaf import cell_census, chain_complex, em_set, homology_f2, oracle_multisimplicial
from .trees import enumerate_pruned, enumerate_trees
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _emit_table(header: tuple[str, str], rows: list[tuple], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))


def cmd_trees(args) -> int:
    listing = (
        enumerate_pruned(args.n, args.edges)
        if args.pruned
        else enumerate_trees(args.n, args.edges)
    )
    for tree in listing:
        print(tree.render())
    return EXIT_OK


def cmd_em(args) -> int:
    x_set = em_set(args.group, args.n)
    if args.em_command == "cells":
        census = cell_census(x_set, args.max_dim)
        rows = [(d, census[d]) for d in range(args.max_dim + 1)]
        _emit_table(("dimension", "count"), rows, args.format)
        return EXIT_OK
    if args.oracle and args.n > 2:
        print(f"oracle unsupported for n={args.n}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    # homology: degree d needs the boundary in degree d+1
    complex_ = chain_complex(x_set, args.max_dim)
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
        values = fib_numbers(args.n, args.order, args.terms - 1)
        _emit_table(("k", "f"), list(enumerate(values)), args.format)
        return EXIT_OK
    value = euler_char(args.n, args.order)
    print(value)
    expected = Fraction(args.order) ** (1 if args.n % 2 == 0 else -1)
    if value != expected:
        print(f"euler characteristic {value} != {expected}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, args.seed)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}  ({detail})")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
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
    p_trees.set_defaults(func=cmd_trees)

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
                           help="cross-check against the multisimplicial oracle")
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
        "--suite", required=True, choices=sorted(SUITES) + ["all"]
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _apply_memory_cap() -> None:
    cap = os.environ.get("THETA_MAX_MEM_MB")
    if not cap:
        return
    import resource

    limit = int(cap) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "trees" and args.pruned and args.n < 1:
            parser.error("trees --pruned needs --n >= 1")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_memory_cap()
        return args.func(args)
    except MemoryError:
        print("memory cap exceeded (THETA_MAX_MEM_MB)", file=sys.stderr)
        return EXIT_UNSUPPORTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
