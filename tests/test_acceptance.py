"""End-to-end acceptance checks.

Each test covers one headline guarantee, asserts exact results, and
enforces the advertised runtime budget.  A one-line PASS report is
printed per criterion (visible with ``pytest -v`` or ``-s``).
"""

import itertools
import math
import time
from fractions import Fraction

from thetacomb.cli import main
from thetacomb.counting import euler_char, fib_numbers, gf_coefficients, gf_em
from thetacomb.gamma import parse_group
from thetacomb.presheaf import (
    chain_complex,
    em_set,
    homology_f2,
    oracle_multisimplicial,
    product_census,
    product_set,
)
from thetacomb.theta import dim_theta
from thetacomb.trees import _PRUNED_MEMO, corolla, enumerate_trees
from thetacomb.verify import _pruned_leaf_profile, run_suites, weighted_pruned_count


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
    # time a cold enumeration whatever ran before in this process
    _PRUNED_MEMO.clear()
    _pruned_leaf_profile.cache_clear()
    started = time.perf_counter()
    for n in range(1, 5):
        for p in (2, 3, 5):
            counts = [weighted_pruned_count(n, p, k) for k in range(13 + n)]
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
            rec = fib_numbers(n, p, 10)
            coeffs = gf_coefficients(gf_em(n, p), n + 10)
            for k in range(11):
                assert weighted_pruned_count(n, p, k) == rec[k] == coeffs[n + k]
    with capsys.disabled():
        _report(4, "enumeration = recursion = series coefficients, n <= 3, p <= 4, k <= 10", started, 30)


def test_criterion_05_shuffle_counts(capsys):
    started = time.perf_counter()
    for m in range(7):
        for n in range(7 - m):
            if m + n == 0:
                continue
            census = product_census(corolla(m), corolla(n), 1, m + n)
            assert census[m + n] == math.comb(m + n, m)
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
                assert dim_theta(t) == e == wreath_dim(t)
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
