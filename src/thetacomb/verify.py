"""Invariant suites shared by the CLI `verify` command and the test suite.

Each suite returns a list of (check-name, passed, detail) triples; a
suite passes iff every triple does.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .counting import euler_char, fib_numbers, gf_coefficients, gf_em
from .gamma import compose_gamma, parse_group
from .presheaf import chain_complex, em_set, homology_f2, oracle_multisimplicial
from .theta import (
    ThetaOperator,
    compose_theta,
    gamma_n,
    hom_theta,
    identity_theta,
    is_retraction,
    reedy_factor,
    suspend,
)
from .trees import LevelTree, enumerate_pruned, enumerate_trees

Check = tuple[str, bool, str]


def sample_trees(n: int, max_edges: int) -> list[LevelTree]:
    out = []
    for e in range(max_edges + 1):
        out.extend(enumerate_trees(n, e))
    return out


def suite_wreath_laws(seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    trees = sample_trees(2, 3)
    homs = {
        (s, t): hom_theta(s, t, 2) for s in trees for t in trees
    }
    bad_identity = 0
    for (s, t), ops in homs.items():
        id_s, id_t = identity_theta(s, 2), identity_theta(t, 2)
        for f in ops:
            if compose_theta(f, id_s) != f or compose_theta(id_t, f) != f:
                bad_identity += 1
    checks.append(
        ("identity laws, exhaustive n=2 trees <= 3 edges", bad_identity == 0,
         f"{bad_identity} violations")
    )
    # associativity over all 4.1M composable triples: precompute composition
    # tables as index arrays, then check h(gf) = (hg)f by table lookups
    positions = {
        pair: {op: i for i, op in enumerate(ops)} for pair, ops in homs.items()
    }
    tables: dict[tuple, list[list[int]]] = {}
    for s, t, u in itertools.product(trees, repeat=3):
        pos = positions[(s, u)]
        tables[(s, t, u)] = [
            [pos[compose_theta(g, f)] for g in homs[(t, u)]]
            for f in homs[(s, t)]
        ]
    bad_assoc = 0
    total = 0
    for s, t, u, v in itertools.product(trees, repeat=4):
        t_stu = tables[(s, t, u)]
        t_tuv = tables[(t, u, v)]
        t_suv = tables[(s, u, v)]
        t_stv = tables[(s, t, v)]
        n_h = len(homs[(u, v)])
        for fi in range(len(homs[(s, t)])):
            row_f = t_stu[fi]
            row_fv = t_stv[fi]
            for gi in range(len(homs[(t, u)])):
                gf = row_f[gi]
                row_g = t_tuv[gi]
                row_gf = t_suv[gf]
                for hi in range(n_h):
                    total += 1
                    if row_fv[row_g[hi]] != row_gf[hi]:
                        bad_assoc += 1
    checks.append(
        ("associativity, exhaustive n=2 trees <= 3 edges", bad_assoc == 0,
         f"{bad_assoc}/{total} violations")
    )
    # random sample at n=3
    rng = random.Random(seed)
    trees3 = sample_trees(3, 4)
    bad3 = 0
    for _ in range(40):
        s, t, u, v = (rng.choice(trees3) for _ in range(4))
        f = rng.choice(hom_theta(s, t, 3))
        g = rng.choice(hom_theta(t, u, 3))
        h = rng.choice(hom_theta(u, v, 3))
        if compose_theta(compose_theta(h, g), f) != compose_theta(
            h, compose_theta(g, f)
        ):
            bad3 += 1
    checks.append(
        ("associativity, random n=3 trees <= 4 edges", bad3 == 0, f"{bad3} violations")
    )
    return checks


def brute_force_reedy(
    f: ThetaOperator,
    trees: list[LevelTree],
    homs: dict,
    mono_cache: dict,
) -> list[tuple[ThetaOperator, ThetaOperator]]:
    """All factorizations f = m . r with r a retraction and m monic, the
    mono test delegated to reedy_factor as an independent cross-check."""
    found = []
    for u in trees:
        if u.edges > f.source.edges:
            continue
        for r in homs[(f.source, u)]:
            if not is_retraction(r):
                continue
            for m in homs[(u, f.target)]:
                if compose_theta(m, r) != f:
                    continue
                if m not in mono_cache:
                    mono_cache[m] = reedy_factor(m)[0].is_identity
                if mono_cache[m]:
                    found.append((r, m))
    return found


def suite_factorization() -> list[Check]:
    checks: list[Check] = []
    trees = sample_trees(2, 3)
    homs = {(s, t): hom_theta(s, t, 2) for s in trees for t in trees}
    mono_cache: dict = {}
    bad = []
    count = 0
    for (s, t), ops in homs.items():
        for f in ops:
            count += 1
            degeneracy, face = reedy_factor(f)
            if compose_theta(face, degeneracy) != f:
                bad.append((f, "does not recompose"))
                continue
            if not is_retraction(degeneracy):
                bad.append((f, "degeneracy part is not a retraction"))
                continue
            pairs = brute_force_reedy(f, trees, homs, mono_cache)
            if len(pairs) != 1:
                bad.append((f, f"brute force found {len(pairs)} factorizations"))
            elif pairs[0] != (degeneracy, face):
                bad.append((f, "brute force disagrees with reedy_factor"))
    checks.append(
        (
            "reedy factorization exists uniquely, exhaustive n=2 trees <= 3 edges",
            not bad,
            f"{len(bad)}/{count} operators failed"
            + (f"; first: {bad[0][1]}" if bad else ""),
        )
    )
    return checks


def suite_gamma_functor() -> list[Check]:
    checks: list[Check] = []
    trees = sample_trees(2, 3)
    homs = {(s, t): hom_theta(s, t, 2) for s in trees for t in trees}
    bad_fun = 0
    total = 0
    for s, t, u in itertools.product(trees, repeat=3):
        for f in homs[(s, t)]:
            gf_f = gamma_n(f)
            for g in homs[(t, u)]:
                total += 1
                if gamma_n(compose_theta(g, f)) != compose_gamma(gamma_n(g), gf_f):
                    bad_fun += 1
    checks.append(
        ("gamma_n functoriality, exhaustive n=2 trees <= 3 edges",
         bad_fun == 0, f"{bad_fun}/{total} violations")
    )
    bad_susp = 0
    for ops in homs.values():
        for f in ops:
            if gamma_n(suspend(f)) != gamma_n(f):
                bad_susp += 1
    checks.append(
        ("suspension triangle gamma_{n+1} o sigma_n = gamma_n",
         bad_susp == 0, f"{bad_susp} violations")
    )
    return checks


def suite_chain() -> list[Check]:
    checks: list[Check] = []
    cases = [("z2", 1, 7), ("z3", 1, 6), ("z2", 2, 6)]
    for spec, n, bound in cases:
        pi = parse_group(spec)
        complex_ = chain_complex(em_set(pi, n), bound)
        ours = [homology_f2(complex_, d) for d in range(bound)]
        oracle = oracle_multisimplicial(pi, n, bound)
        checks.append(
            (
                f"homology of K({spec},{n}) vs oracle, degrees < {bound}",
                ours == oracle,
                f"chain {ours} vs oracle {oracle}",
            )
        )
    return checks


@lru_cache(maxsize=None)
def _pruned_leaf_profile(n: int, k: int) -> tuple[int, ...]:
    from .trees import vertices_at_height

    return tuple(
        len(vertices_at_height(tree, n)) for tree in enumerate_pruned(n, n + k)
    )


def weighted_pruned_count(n: int, p: int, k: int) -> int:
    """Independent oracle for f_{n,pi}^k: enumerate pruned n-trees with
    n+k edges and weight each by (p-1)^{#leaves}."""
    return sum((p - 1) ** c for c in _pruned_leaf_profile(n, k))


def suite_counts() -> list[Check]:
    checks: list[Check] = []
    bad = []
    for n in range(1, 4):
        for p in range(2, 5):
            rec = fib_numbers(n, p, 10)
            coeffs = gf_coefficients(gf_em(n, p), n + 10)
            for k in range(11):
                enum = weighted_pruned_count(n, p, k)
                if not (enum == rec[k] == coeffs[n + k]):
                    bad.append((n, p, k, enum, rec[k], coeffs[n + k]))
    checks.append(
        ("three-way count agreement, n <= 3, p <= 4, k <= 10",
         not bad, f"{len(bad)} mismatches" + (f"; first: {bad[0]}" if bad else ""))
    )
    bad_euler = []
    for n in range(1, 7):
        for p in range(2, 8):
            want = Fraction(p) if n % 2 == 0 else Fraction(1, p)
            if euler_char(n, p) != want:
                bad_euler.append((n, p))
    checks.append(
        ("euler characteristic p^((-1)^n), n <= 6, p <= 7",
         not bad_euler, f"{len(bad_euler)} mismatches")
    )
    return checks


SUITES = {
    "wreath-laws": lambda seed: suite_wreath_laws(seed),
    "factorization": lambda seed: suite_factorization(),
    "gamma-functor": lambda seed: suite_gamma_functor(),
    "chain": lambda seed: suite_chain(),
    "counts": lambda seed: suite_counts(),
}


def run_suites(names: list[str], seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](seed))
    return checks
