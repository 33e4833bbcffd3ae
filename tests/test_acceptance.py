"""End-to-end acceptance checks.

Each test covers one headline guarantee, asserts exact results, and
enforces the advertised runtime budget.  A one-line PASS report is
printed per criterion (visible with ``pytest -v`` or ``-s``).
"""

import contextlib
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import thetacomb
from thetacomb.cli import main
from thetacomb.counting import euler_char, fib_numbers, gf_coefficients, gf_em
from thetacomb.gamma import FiniteAbelianGroup, parse_group
from thetacomb.presheaf import (
    chain_complex,
    em_cell_count,
    em_set,
    homology_f2,
    oracle_multisimplicial,
)
from thetacomb import verify
from thetacomb.theta import (
    compose_after,
    compose_theta,
    gamma_n,
    hom_theta,
    is_retraction,
    reedy_factor,
)
from thetacomb.trees import enumerate_trees
from thetacomb.verify import SUITES, run_suites, sample_trees

from oracles import corolla, is_identity, product_set

THETA2_SUITES = ["wreath-laws", "factorization", "gamma-functor"]
PACKAGE_PATH = str(Path(thetacomb.__file__).resolve().parent.parent)


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"criterion {number:2d} PASS  {label}  ({elapsed:.2f}s)")


def test_criterion_01_fibonacci_cell_counts(capsys):
    started = time.perf_counter()
    code = main(["em", "cells", "--n", "2", "--group", "z2", "--max-dim", "12"])
    out = capsys.readouterr().out
    assert code == 0
    counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert counts[:2] == [1, 0]
    assert counts[2:] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    with capsys.disabled():
        _report(1, "Fibonacci cell counts of K(Z/2,2) through dimension 12", started, 5)


def test_criterion_02_recursion_law_on_enumerated_counts(capsys):
    started = time.perf_counter()
    for n in range(1, 5):
        for p in (2, 3, 5):
            pi = FiniteAbelianGroup((p,))
            counts = [em_cell_count(pi, n, n + k) for k in range(13 + n)]
            for k in range(13):
                assert (p - 1) * sum(counts[k : k + n]) == counts[k + n]
    with capsys.disabled():
        _report(2, "recursion law on enumerated counts, n <= 4, p in {2,3,5}, k <= 12", started, 10)


def test_criterion_03_euler_characteristic(capsys):
    started = time.perf_counter()
    for n in range(1, 7):
        for p in range(2, 8):
            want = Fraction(p) if n % 2 == 0 else Fraction(1, p)
            assert euler_char(n, p) == want
    with capsys.disabled():
        _report(3, "euler_char(n,p) = p^((-1)^n) exactly, n <= 6, p <= 7", started, 1)


def test_criterion_04_three_way_count_agreement(capsys):
    started = time.perf_counter()
    for n in range(1, 4):
        for p in range(2, 5):
            pi = FiniteAbelianGroup((p,))
            rec = fib_numbers(n, p, 10)
            coeffs = gf_coefficients(gf_em(n, p), n + 10)
            for k in range(11):
                assert em_cell_count(pi, n, n + k) == rec[k] == coeffs[n + k]
    with capsys.disabled():
        _report(4, "enumeration = recursion = series coefficients, n <= 3, p <= 4, k <= 10", started, 30)


def test_criterion_05_shuffle_counts(capsys):
    started = time.perf_counter()
    for m in range(7):
        for n in range(7 - m):
            if m + n == 0:
                continue
            top = product_set(corolla(m), corolla(n), 1).cells(m + n)
            assert len(top) == math.comb(m + n, m)
    with capsys.disabled():
        _report(5, "top cells of Delta[m] x Delta[n] are the (m+n choose m) shuffles, m+n <= 6", started, 30)


def test_criterion_06_wreath_laws_and_reedy_uniqueness(capsys):
    started = time.perf_counter()
    checks = run_suites(["wreath-laws", "factorization"], seed=0)
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"
    with capsys.disabled():
        _report(6, "composition laws + unique Reedy factorization, exhaustive n=2, <= 3 edges", started, 120)


def test_criterion_07_assembly_functoriality(capsys):
    started = time.perf_counter()
    checks = run_suites(["gamma-functor"], seed=0)
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"
    with capsys.disabled():
        _report(7, "gamma_n functoriality and suspension triangle on the exhaustive sample", started, 60)


def test_criterion_08_dimension_law(capsys):
    started = time.perf_counter()

    def wreath_dim(t):
        return len(t.children) + sum(wreath_dim(c) for c in t.children)

    for n in range(1, 5):
        for e in range(9):
            for t in enumerate_trees(n, e):
                assert t.edges == e == wreath_dim(t)
    with capsys.disabled():
        _report(8, "dim(T) = edge count = wreath formula, all trees <= 8 edges, n <= 4", started, 5)


def test_criterion_09_homology_vs_oracle(capsys):
    started = time.perf_counter()
    for spec, n, bound, betti_n in (("z2", 1, 7, 1), ("z3", 1, 6, 0), ("z2", 2, 6, 1)):
        pi = parse_group(spec)
        complex_ = chain_complex(em_set(pi, n), bound)
        ours = [homology_f2(complex_, d) for d in range(bound)]
        assert ours == oracle_multisimplicial(pi, n, bound)
        assert all(ours[k] == 0 for k in range(1, n))
        assert ours[n] == betti_n
    with capsys.disabled():
        _report(9, "F2 Betti numbers of K(Z/2,1), K(Z/3,1), K(Z/2,2) match the oracle", started, 300)


def test_criterion_10_boundary_squares_to_zero(capsys):
    # chain_complex raises if d o d != 0; building every complex the suite
    # touches (plus products) proves the assertion never fires
    started = time.perf_counter()
    for spec, n, bound in (("z2", 1, 7), ("z3", 1, 6), ("z2", 2, 6), ("z2xz2", 1, 4), ("z4", 2, 4)):
        chain_complex(em_set(parse_group(spec), n), bound)
    for m, n in itertools.product(range(3), repeat=2):
        chain_complex(product_set(corolla(m), corolla(n), 1), m + n)
    with capsys.disabled():
        _report(10, "boundary-squared-is-zero assertion holds in every constructed complex", started, 300)


def serre_bigraded_z2(n, top):
    """F2 Betti numbers of K(Z/2,n) by degree 0..top-1 and weight 0..top-1,
    betti[degree][weight], from Serre's theorem: the cohomology is
    polynomial on Sq^I iota_n, one generator of degree n+|I| and weight
    2^l(I), l(I) the length of I, for each admissible I (i_k >= 2 i_{k+1},
    i_r >= 1, I empty allowed) of excess i_1 - i_2 - ... - i_r below n.
    No weight exceeds its degree."""
    generators = []
    stack = [()]
    while stack:
        seq = stack.pop()
        degree = n + sum(seq)
        if degree >= top:
            continue
        if not seq or 2 * seq[0] - sum(seq) < n:
            generators.append((degree, 2 ** len(seq)))
        stack.extend((i,) + seq for i in range(2 * seq[0] if seq else 1, top - degree))
    betti = [[int(k == v == 0) for v in range(top)] for k in range(top)]
    for d, w in generators:  # multiply by 1 / (1 - t^d s^w)
        for k in range(d, top):
            for v in range(w, top):
                betti[k][v] += betti[k - d][v - w]
    return betti


def cartan_multigraded_z2(n, top):
    """F2 Betti numbers of K(Z/2,n) by degree 0..top-1 and multidegree c,
    as {(degree, c): betti} with the zeros left out, from Cartan's iterated
    bar constructions (Seminaire H. Cartan 7, 1954/55).  c is a tuple of
    top.bit_length() counts, c_i the level-1 letters x^a with bit i of a
    set.  Level 1 is exterior on x_i, of degree 2^i and multidegree e_i;
    level 2 has the generators sigma x_i, of degree 2^i + 1; for k >= 2
    each level-k generator (d, m) gives the level-(k+1) generators
    (2^j d + 1, 2^j m), j >= 0.  From level 2 on the series is the product
    of 1 / (1 - t^d s^m) over the generators."""
    width = top.bit_length()
    generators = [(2 ** i, tuple(int(j == i) for j in range(width))) for i in range(width)]
    for k in range(1, n):
        generators = [
            (2 ** j * d + 1, tuple(2 ** j * x for x in m))
            for d, m in generators for j in range(top if k > 1 else 1) if 2 ** j * d + 1 < top
        ]
    series = {(0, (0,) * width): 1}
    for d, m in generators:
        if d >= top:
            continue
        powers = range(2 if n == 1 else top)  # exterior at level 1
        grown: dict = {}
        for (degree, c), betti in series.items():
            for power in powers:
                if degree + power * d >= top:
                    break
                key = degree + power * d, tuple(x + power * y for x, y in zip(c, m))
                grown[key] = grown.get(key, 0) + betti
        series = grown
    return series


def serre_betti_z2(n, top):
    """F2 Betti numbers of K(Z/2,n) in degrees 0..top-1 from Serre's theorem,
    the sums over weights of serre_bigraded_z2."""
    return [sum(row) for row in serre_bigraded_z2(n, top)]


def test_criterion_11_homology_vs_serre(capsys):
    assert serre_betti_z2(1, 8) == oracle_multisimplicial(parse_group("z2"), 1, 8)
    assert serre_betti_z2(2, 10) == [1, 0, 1, 1, 1, 2, 2, 2, 3, 4]
    started = time.perf_counter()
    for n in (2, 3):
        code = main(
            ["em", "homology", "--n", str(n), "--group", "z2", "--max-dim", "20", "--oracle"]
        )
        out = capsys.readouterr().out
        assert code == 0
        betti = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert betti == serre_betti_z2(n, 20), n
    with capsys.disabled():
        _report(11, "F2 Betti numbers of K(Z/2,2), K(Z/2,3) through degree 19 match Serre", started, 30)


# run a CLI command in a fresh interpreter, then say on stderr whether it
# imported theta
THETA_LOADED = """
import sys
from thetacomb.cli import main
code = main(sys.argv[1:])
print("thetacomb.theta" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_em_homology_builds_no_theta_operators():
    # the CLI's homology must not fall back on the Theta_n-set chains: a
    # process that never imports theta can build no Theta operator
    argv = ["em", "homology", "--n", "3", "--group", "z2", "--max-dim", "8"]
    result = subprocess.run(
        [sys.executable, "-c", THETA_LOADED, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )
    assert result.returncode == 0 and result.stderr == "False\n", result.stderr
    betti = [int(line.split(",")[1]) for line in result.stdout.splitlines()[1:]]
    assert betti == serre_betti_z2(3, 8)


def _wrong_composite():
    """A non-identity retraction r: s -> t, a non-identity mono m: t -> u
    with u small enough to have a proper face of its own, and an operator
    w: s -> u whose gamma_n differs from that of m . r."""
    trees = sample_trees(2, 3)
    for s, t, u in itertools.product(trees, repeat=3):
        if u.edges == 3:
            continue
        for r in hom_theta(s, t, 2):
            if is_identity(r) or not is_retraction(r):
                continue
            for m in hom_theta(t, u, 2):
                if is_identity(m) or not is_identity(reedy_factor(m)[0]):
                    continue
                gamma_mr = gamma_n(compose_theta(m, r))
                for w in hom_theta(s, u, 2):
                    if gamma_n(w) != gamma_mr:
                        return m, r, w
    raise AssertionError("the sample has no such pair")


@contextlib.contextmanager
def composing_wrongly():
    """verify's composition table composes with _wrong_composite's w in
    place of m . r, from a cleared table; the table is cleared again on the
    way out."""
    m, r, w = _wrong_composite()

    def wrong_compose_after(gs, f):
        return [w if (g, f) == (m, r) else gf for g, gf in zip(gs, compose_after(gs, f))]

    verify.composition_table.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "compose_after", wrong_compose_after)
        yield
    verify.composition_table.cache_clear()


@pytest.fixture
def wrong_composite():
    with composing_wrongly():
        yield


def test_a_wrong_composite_fails_every_theta2_suite(wrong_composite):
    for name in THETA2_SUITES:
        assert not all(ok for _, ok, _ in run_suites([name])), name


def _law_violations() -> list[str]:
    checks = run_suites(["wreath-laws", "gamma-functor"])
    details = {name: detail for name, _, detail in checks}
    return [details["associativity, exhaustive n=2 trees <= 3 edges"],
            details["gamma_n functoriality, exhaustive n=2 trees <= 3 edges"]]


def test_a_wrong_composite_is_counted_once_per_triple(wrong_composite):
    # the checks compare a table block at a time, but count each triple
    # (associativity) or pair (functoriality) that breaks the law once
    assert _law_violations() == ["174/4164023 violations", "1/47934 violations"]


def test_no_derived_table_outlives_the_composition_table():
    # what the suites derive from the composition table is derived afresh
    # in each suite call, so a cleared table is seen by every check
    verify.composition_table.cache_clear()
    clean = ["0/4164023 violations", "0/47934 violations"]
    assert _law_violations() == clean
    with composing_wrongly():
        assert _law_violations() == ["174/4164023 violations", "1/47934 violations"]
    assert _law_violations() == clean


def test_theta2_suites_give_the_same_checks_in_any_order():
    alone = {}
    for name in THETA2_SUITES:
        verify.composition_table.cache_clear()
        alone[name] = run_suites([name])
    verify.composition_table.cache_clear()
    together = run_suites(list(SUITES))
    assert together[: sum(map(len, alone.values()))] == [
        check for name in THETA2_SUITES for check in alone[name]
    ]
    verify.composition_table.cache_clear()
    assert run_suites(THETA2_SUITES[::-1]) == [
        check for name in THETA2_SUITES[::-1] for check in alone[name]
    ]
