"""Answer checker for the benchmark's CLI queries.

Every expected answer is computed here from closed forms and recursions;
nothing is imported from ``thetacomb``, so a wrong program cannot vouch
for itself:

* ``em homology``: F2 Betti numbers from the Serre-Kuenneth Poincare
  series.  H*(K(Z/2^r, n); F2) is polynomial on generators Sq^I i_n, one
  for each admissible I of excess below n, in degree n + |I|; odd-order
  groups are F2-acyclic; direct sums multiply the series.
* ``em cells`` and ``count fib``: the generalized Fibonacci recursion
  f^{k+n} = (p-1)(f^k + ... + f^{k+n-1}), seeded with f^0 = p-1 and
  f^k = 0 for k < 0.
* ``count euler``: p for even n, 1/p for odd n.
* ``trees --pruned``: each line parses, is pruned and has the requested
  edge count, no line repeats, and the number of lines equals the
  coefficient of P_n = x P_{n-1} / (1 - x P_{n-1}), P_0 = 1.
* ``verify``: every line passes, the tally reads ``N/N checks passed``.

``check_answer`` returns None for a correct answer and a one-line reason
otherwise.  ``self_test`` feeds it corrupted answers and reports any it
failed to reject.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _options(argv: tuple[str, ...]) -> dict[str, str | bool]:
    """The --key value pairs of a query; bare flags map to True."""
    opts: dict[str, str | bool] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[arg[2:]] = argv[i + 1]
                i += 2
                continue
            opts[arg[2:]] = True
        i += 1
    return opts


def cyclic_orders(spec: str) -> list[int]:
    """Orders of the cyclic factors of a group spec such as "z2xz4"."""
    orders = []
    for part in spec.lower().split("x"):
        if not re.fullmatch(r"z[0-9]+", part) or int(part[1:]) < 2:
            raise ValueError(f"bad group spec {spec!r}")
        orders.append(int(part[1:]))
    return orders


# --- Poincare series of K(pi, n) over F2 --------------------------------


def _admissible_degrees(n: int, top: int) -> list[int]:
    """Degrees n + |I| <= top of the generators Sq^I i_n of
    H*(K(Z/2, n); F2): I = (i_1, ..., i_k) admissible (i_j >= 2 i_{j+1},
    i_k >= 1) with excess i_1 - i_2 - ... - i_k < n."""
    degrees = [n] if n <= top else []
    budget = top - n

    def extend(seq: list[int], total: int) -> None:
        # seq is built from its last entry towards i_1
        first = seq[0]
        if first - (total - first) < n:
            degrees.append(n + total)
        nxt = 2 * first
        while total + nxt <= budget:
            extend([nxt] + seq, total + nxt)
            nxt += 1

    for last in range(1, budget + 1):
        extend([last], last)
    return degrees


def _times_polynomial_algebra(series: list[int], degree: int) -> list[int]:
    """Multiply a truncated series by 1 / (1 - t^degree)."""
    out = list(series)
    for d in range(degree, len(out)):
        out[d] += out[d - degree]
    return out


def _times(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def betti_numbers(spec: str, n: int, top: int) -> list[int]:
    """F2 Betti numbers of K(pi, n) in degrees 0..top."""
    total = [1] + [0] * top
    for order in cyclic_orders(spec):
        if order % 2:
            continue  # odd order: F2-acyclic
        factor = [1] + [0] * top
        for degree in _admissible_degrees(n, top):
            factor = _times_polynomial_algebra(factor, degree)
        total = _times(total, factor)
    return total


# --- cell counts ---------------------------------------------------------


def fibonacci(n: int, p: int, count: int) -> list[int]:
    """f^0 .. f^{count-1} of f^{k+n} = (p-1)(f^k + ... + f^{k+n-1})."""
    values = [0] * (n - 1) + [p - 1]  # f^{1-n} .. f^0
    while len(values) < n - 1 + count:
        values.append((p - 1) * sum(values[-n:]))
    return values[n - 1 : n - 1 + count]


def cell_counts(spec: str, n: int, top: int) -> list[int]:
    """Non-degenerate cells of K(pi, n) in dimensions 0..top: one cell in
    dimension 0, none below n, f^{d-n} in dimension d >= n."""
    p = 1
    for order in cyclic_orders(spec):
        p *= order
    fib = fibonacci(n, p, max(top - n + 1, 0))
    return [1 if d == 0 else 0 if d < n else fib[d - n] for d in range(top + 1)]


# --- pruned trees --------------------------------------------------------


def pruned_count(n: int, edges: int) -> int:
    """Pruned n-trees with the given edge count: coefficient of x^edges in
    P_n = A / (1 - A) with A = x P_{n-1}, P_0 = 1."""
    series = [1] + [0] * edges
    for _ in range(n):
        a = [0] + series[:-1]
        geometric = [0] * (edges + 1)  # A + A^2 + ...
        power = a
        while any(power):
            geometric = [g + q for g, q in zip(geometric, power)]
            power = _times(power, a)
        series = geometric
    return series[edges]


def _parse_tree(text: str) -> list:
    """Nested lists from the bracket encoding "[[],[[]]]"; raises ValueError."""
    stack: list[list] = []
    root = None
    expect_child = True
    for ch in text:
        if ch == "[":
            if not expect_child or root is not None:
                raise ValueError("misplaced '['")
            node: list = []
            if stack:
                stack[-1].append(node)
            stack.append(node)
            expect_child = True
        elif ch == "]":
            if not stack:
                raise ValueError("unbalanced ']'")
            node = stack.pop()
            if not stack:
                root = node
            expect_child = False
        elif ch == ",":
            if not stack or expect_child:
                raise ValueError("misplaced ','")
            expect_child = True
        else:
            raise ValueError(f"unexpected {ch!r}")
    if root is None or stack:
        raise ValueError("unbalanced '['")
    return root


def _edges(tree: list) -> int:
    return sum(1 + _edges(c) for c in tree)


def _leaves_at(tree: list, depth: int) -> bool:
    if not tree:
        return depth == 0
    return all(_leaves_at(c, depth - 1) for c in tree)


# --- the checker ---------------------------------------------------------


def _table(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _expect_rows(out: str, header: str, values: list) -> str | None:
    rows = _table(out, header)
    want = [[str(i), str(v)] for i, v in enumerate(values)]
    if rows != want:
        for i, (got, exp) in enumerate(zip(rows, want)):
            if got != exp:
                return f"row {i}: {','.join(got)} != {','.join(exp)}"
        return f"{len(rows)} rows, expected {len(want)}"
    return None


def check_answer(argv: tuple[str, ...], code: int, out: str) -> str | None:
    """None when the query's exit code and stdout are correct, else why not."""
    if code != 0:
        return f"exit code {code}"
    opts = _options(argv)
    try:
        if argv[:2] == ("em", "homology"):
            n, top = int(opts["n"]), int(opts["max-dim"])
            want = betti_numbers(str(opts["group"]), n, top)[:top]
            return _expect_rows(out, "degree,betti_f2", want)
        if argv[:2] == ("em", "cells"):
            n, top = int(opts["n"]), int(opts["max-dim"])
            return _expect_rows(out, "dimension,count",
                                cell_counts(str(opts["group"]), n, top))
        if argv[:2] == ("count", "fib"):
            n, p = int(opts["n"]), int(opts["order"])
            return _expect_rows(out, "k,f", fibonacci(n, p, int(opts["terms"])))
        if argv[:2] == ("count", "euler"):
            n, p = int(opts["n"]), int(opts["order"])
            want = Fraction(p) if n % 2 == 0 else Fraction(1, p)
            got = out.strip()
            return None if got == str(want) else f"{got} != {want}"
        if argv[0] == "trees" and opts.get("pruned") is True:
            return _check_pruned(int(opts["n"]), int(opts["edges"]), out)
        if argv[0] == "verify":
            return _check_verify(out)
    except (KeyError, ValueError) as exc:
        return f"unreadable answer: {exc}"
    raise ValueError(f"no checker for query {' '.join(argv)}")


def _check_pruned(n: int, edges: int, out: str) -> str | None:
    lines = out.splitlines()
    if len(set(lines)) != len(lines):
        return "repeated tree"
    for line in lines:
        tree = _parse_tree(line)
        if _edges(tree) != edges:
            return f"{line} has {_edges(tree)} edges, expected {edges}"
        if not _leaves_at(tree, n):
            return f"{line} is not pruned at height {n}"
    want = pruned_count(n, edges)
    return None if len(lines) == want else f"{len(lines)} trees, expected {want}"


def _check_verify(out: str) -> str | None:
    lines = out.splitlines()
    if not lines:
        return "no output"
    tally = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1])
    if not tally or tally[1] != tally[2] or int(tally[2]) < 1:
        return f"tally {lines[-1]!r}"
    if len(lines) - 1 != int(tally[2]):
        return f"{len(lines) - 1} check lines for a tally of {tally[2]}"
    bad = [line for line in lines[:-1] if not line.startswith("PASS  ")]
    return f"failed check: {bad[0]}" if bad else None


# --- self-test -------------------------------------------------------------


def _rows(header: str, values: list) -> str:
    return "\n".join([header] + [f"{i},{v}" for i, v in enumerate(values)]) + "\n"


def self_test() -> list[str]:
    """Known-good answers must pass and corrupted ones must fail; returns
    a description of every case that went the wrong way."""
    homology = ("em", "homology", "--n", "2", "--group", "z2", "--max-dim", "7")
    cells = ("em", "cells", "--n", "2", "--group", "z2", "--max-dim", "7")
    fib = ("count", "fib", "--n", "2", "--order", "3", "--terms", "5")
    euler = ("count", "euler", "--n", "1", "--order", "2")
    pruned = ("trees", "--n", "2", "--edges", "4", "--pruned")
    verify = ("verify", "--suite", "all", "--seed", "0")
    good_homology = _rows("degree,betti_f2", [1, 0, 1, 1, 1, 2, 2])
    good_cells = _rows("dimension,count", [1, 0, 1, 1, 2, 3, 5, 8])
    good_fib = _rows("k,f", [2, 4, 12, 32, 88])
    good_pruned = "[[[],[],[]]]\n[[[]],[[]]]\n"
    good_verify = "PASS  a  (0 violations)\nPASS  b  (ok)\n2/2 checks passed\n"
    cases = [
        (homology, 0, good_homology, True),
        (homology, 0, good_homology.replace("5,2", "5,3"), False),
        (homology, 0, good_homology.rsplit("6,2", 1)[0], False),
        (homology, 1, good_homology, False),
        (("em", "homology", "--n", "1", "--group", "z2xz2", "--max-dim", "4"),
         0, _rows("degree,betti_f2", [1, 2, 3, 4]), True),
        (("em", "homology", "--n", "2", "--group", "z3", "--max-dim", "3"),
         0, _rows("degree,betti_f2", [1, 0, 1]), False),
        (cells, 0, good_cells, True),
        (cells, 0, good_cells.replace("7,8", "7,9"), False),
        (fib, 0, good_fib, True),
        (fib, 0, good_fib.replace("4,88", "4,89"), False),
        (euler, 0, "1/2\n", True),
        (euler, 0, "2\n", False),
        (pruned, 0, good_pruned, True),
        (pruned, 0, "[[[]],[[]]]\n[[[]],[[]]]\n", False),
        (pruned, 0, "[[[]],[[]]]\n[[],[[],[]]]\n", False),
        (pruned, 0, "[[[]],[[]]]\n[[[],[]]]\n", False),
        (pruned, 0, "[[[]],[[]]]\n", False),
        (pruned, 0, "[[[]],[[]]]\n[[[],[],[]]\n", False),
        (verify, 0, good_verify, True),
        (verify, 0, good_verify.replace("2/2", "1/2"), False),
        (verify, 0, good_verify.replace("PASS  b", "FAIL  b"), False),
        (verify, 1, good_verify, False),
    ]
    wrong = []
    for argv, code, out, accept in cases:
        verdict = check_answer(argv, code, out)
        if (verdict is None) != accept:
            expected = "accepted" if accept else "rejected"
            wrong.append(f"{' '.join(argv)} (exit {code}) not {expected}: {verdict}")
    return wrong
