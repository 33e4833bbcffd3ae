"""Invariant suites shared by the CLI `verify` command and the test suite.

Each suite returns a list of (check-name, passed, detail) triples; a
suite passes iff every triple does.  The exhaustive n=2 suites
(wreath-laws, factorization, gamma-functor) share one composition table
per process, filled lazily by composition_table; they check the laws on
its bytes, through translation tables derived afresh in each suite call.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .counting import euler_char, fib_numbers, gf_coefficients, gf_em
from .gamma import FiniteAbelianGroup, compose_gamma, hom_gamma, identity_gamma, parse_group
from .presheaf import (
    chain_complex,
    em_cell_count,
    em_chains,
    em_set,
    homology_f2,
    oracle_multisimplicial,
    word_cell,
)
from .theta import (
    ThetaOperator,
    compose_theta,
    gamma_n,
    hom_size,
    hom_theta,
    identity_theta,
    is_face,
    is_retraction,
    nth_theta,
    reedy_factor,
    suspend,
)
from .trees import LevelTree, enumerate_trees

Check = tuple[str, bool, str]


def sample_trees(n: int, max_edges: int) -> list[LevelTree]:
    out = []
    for e in range(max_edges + 1):
        out.extend(enumerate_trees(n, e))
    return out


@functools.cache
def _positions(s: LevelTree, t: LevelTree) -> dict[ThetaOperator, int]:
    return {op: i for i, op in enumerate(hom_theta(s, t, 2))}


@functools.cache
def composition_table(s: LevelTree, t: LevelTree, u: LevelTree) -> tuple[bytes, ...]:
    """Row i, byte j: the index in hom_theta(s, u, 2) of g_j . f_i, for f_i in
    hom_theta(s, t, 2) and g_j in hom_theta(t, u, 2) (the sample's hom-sets
    have at most 35 operators).  Each composable pair is composed once per
    process; a composite outside hom_theta(s, u, 2) raises KeyError."""
    pos, hom_tu = _positions(s, u), hom_theta(t, u, 2)
    return tuple(
        bytes(map(pos.__getitem__, map(compose_theta, hom_tu, itertools.repeat(f))))
        for f in hom_theta(s, t, 2)
    )


def suite_wreath_laws(seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    trees = sample_trees(2, 3)
    bad_identity = 0
    for s, t in itertools.product(trees, repeat=2):
        f_id = composition_table(s, s, t)[_positions(s, s)[identity_theta(s, 2)]]
        id_t = _positions(t, t)[identity_theta(t, 2)]
        bad_identity += sum(
            f_id[i] != i or row[id_t] != i
            for i, row in enumerate(composition_table(s, t, t))
        )
    checks.append(
        ("identity laws, exhaustive n=2 trees <= 3 edges", bad_identity == 0,
         f"{bad_identity} violations")
    )
    # associativity over all 4.1M composable triples, one (s, t, u, v) block
    # at a time: f's row of the (s, t, v) table, as a translation table, sends
    # each hg to (hg)f, listed f, g, h and re-laid h, f, g by strided slices;
    # h's column of the (s, u, v) table sends each gf to h(gf), listed h, f, g
    bad_assoc = 0
    total = 0
    for s, v in itertools.product(trees, repeat=2):
        f_rows = {t: [row.ljust(256, b"\0") for row in composition_table(s, t, v)]
                  for t in trees}
        for u in trees:
            width = len(hom_theta(u, v, 2))
            by_row = b"".join(composition_table(s, u, v))
            columns = [by_row[h::width].ljust(256, b"\0") for h in range(width)]
            for t in trees:
                hg_f = b"".join(map(b"".join(composition_table(t, u, v)).translate, f_rows[t]))
                hg_f = b"".join(hg_f[h::width] for h in range(width))
                h_gf = b"".join(map(b"".join(composition_table(s, t, u)).translate, columns))
                total += len(hg_f)
                if hg_f != h_gf:
                    bad_assoc += sum(a != b for a, b in zip(hg_f, h_gf))
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
        # hom_theta's i-th, built alone; randrange draws i as choice would
        f, g, h = (nth_theta(a, b, 3, rng.randrange(hom_size(a, b, 3)))
                   for a, b in ((s, t), (t, u), (u, v)))
        if compose_theta(compose_theta(h, g), f) != compose_theta(
            h, compose_theta(g, f)
        ):
            bad3 += 1
    checks.append(
        ("associativity, random n=3 trees <= 4 edges", bad3 == 0, f"{bad3} violations")
    )
    return checks


@functools.cache
def _retraction_positions(s: LevelTree, u: LevelTree) -> tuple[int, ...]:
    """The positions of the retractions in hom_theta(s, u, 2)."""
    return tuple(i for i, r in enumerate(hom_theta(s, u, 2)) if is_retraction(r))


def brute_force_reedy(
    f: ThetaOperator, trees: list[LevelTree]
) -> list[tuple[ThetaOperator, ThetaOperator]]:
    """All factorizations f = m . r, r a retraction and m monic, read off the
    composition table."""
    found = []
    fi = _positions(f.source, f.target)[f]
    for u in trees:
        if u.edges > f.source.edges or not _retraction_positions(f.source, u):
            continue
        table = composition_table(f.source, u, f.target)
        hom_su, hom_ut = hom_theta(f.source, u, 2), hom_theta(u, f.target, 2)
        for i in _retraction_positions(f.source, u):
            for m, mr in zip(hom_ut, table[i]):
                if mr == fi and is_face(m):
                    found.append((hom_su[i], m))
    return found


def suite_factorization() -> list[Check]:
    checks: list[Check] = []
    trees = sample_trees(2, 3)
    bad = []
    count = 0
    for s, t in itertools.product(trees, repeat=2):
        for f in hom_theta(s, t, 2):
            count += 1
            degeneracy, face = reedy_factor(f)
            if compose_theta(face, degeneracy) != f:
                bad.append((f, "does not recompose"))
                continue
            if not is_retraction(degeneracy):
                bad.append((f, "degeneracy part is not a retraction"))
                continue
            pairs = brute_force_reedy(f, trees)
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


@functools.cache
def _gammas(s: LevelTree, t: LevelTree) -> tuple:
    return tuple(map(gamma_n, hom_theta(s, t, 2)))


@functools.cache
def _gamma_positions(m: int, n: int) -> dict:
    return {g: i for i, g in enumerate(hom_gamma(m, n))}


def _gamma_code(g) -> int:
    """g's position in hom_gamma; below 256 at the sample's endpoints <= 3."""
    return _gamma_positions(g.source, g.target)[g]


@functools.cache
def _gamma_codes(s: LevelTree, t: LevelTree) -> bytes:
    """The codes of _gammas(s, t), as a translation table."""
    return bytes(map(_gamma_code, _gammas(s, t))).ljust(256, b"\0")


@functools.cache
def _composite_codes(t: LevelTree, u: LevelTree, gamma_f) -> bytes:
    """The codes of gamma_n(g) . gamma_f, for g in hom_theta(t, u, 2)."""
    return bytes(_gamma_code(compose_gamma(g, gamma_f)) for g in _gammas(t, u))


def _functoriality_violations(triples) -> tuple[int, int]:
    """Pairs s -> t -> u of the n=2 triples breaking functoriality, and all
    pairs, compared in codes a table row at a time."""
    bad = total = 0
    for s, t, u in triples:
        codes = _gamma_codes(s, u)
        for row, gamma_f in zip(composition_table(s, t, u), _gammas(s, t)):
            total += len(row)
            got, want = row.translate(codes), _composite_codes(t, u, gamma_f)
            if got != want:
                bad += sum(a != b for a, b in zip(got, want))
    return bad, total


def suite_gamma_functor() -> list[Check]:
    checks: list[Check] = []
    # Gamma's own laws: at these endpoints g's subsets can give a union out of order
    homs = {(m, n): hom_gamma(m, n) for m in range(3) for n in range(3)}
    ids = [identity_gamma(m) for m in range(3)]
    bad_id = sum(compose_gamma(ids[n], f) != f or compose_gamma(f, ids[m]) != f
                 for (m, n), fs in homs.items() for f in fs)
    checks.append(
        ("Gamma identity laws, exhaustive endpoints <= 2",
         bad_id == 0, f"{bad_id} violations")
    )
    triples = [fgh for a, b, c, d in itertools.product(range(3), repeat=4)
               for fgh in itertools.product(homs[a, b], homs[b, c], homs[c, d])]
    bad = sum(compose_gamma(compose_gamma(h, g), f) != compose_gamma(h, compose_gamma(g, f))
              for f, g, h in triples)
    checks.append(
        ("Gamma associativity, exhaustive endpoints <= 2", bad == 0,
         f"{bad}/{len(triples)} violations")
    )
    trees = sample_trees(2, 3)
    bad_fun, total = _functoriality_violations(itertools.product(trees, repeat=3))
    checks.append(
        ("gamma_n functoriality, exhaustive n=2 trees <= 3 edges",
         bad_fun == 0, f"{bad_fun}/{total} violations")
    )
    # only a 4-edge target has two height-2 vertices under one row's components
    small = sample_trees(2, 2)
    triples = itertools.product(small, small, enumerate_trees(2, 4))
    bad_fun, total = _functoriality_violations(triples)
    checks.append(
        ("gamma_n functoriality, n=2 trees <= 2 edges into 4 edges",
         bad_fun == 0, f"{bad_fun}/{total} violations")
    )
    bad_susp = 0
    for s, t in itertools.product(trees, repeat=2):
        for f in hom_theta(s, t, 2):
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
        bar = em_chains(pi, n, bound)
        cells = [[word_cell(n, w) for w in layer] for layer in bar.basis]
        same = cells == complex_.basis and bar.boundary == complex_.boundary
        checks.append((
            f"labelled-tree boundary of K({spec},{n}) equals the Theta_n-set boundary",
            same, f"degrees <= {bound}, {sum(map(len, bar.basis))} cells",
        ))
    return checks


def suite_counts() -> list[Check]:
    checks: list[Check] = []
    bad = []
    for n in range(1, 4):
        for p in range(2, 5):
            pi = FiniteAbelianGroup((p,))
            rec = fib_numbers(n, p, 10)
            coeffs = gf_coefficients(gf_em(n, p), n + 10)
            for k in range(11):
                enum = em_cell_count(pi, n, n + k)
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
    """The named suites' checks.  A suite that raises, short of memory or
    recursion depth, is one failed check named after it; the rest still run."""
    checks: list[Check] = []
    for name in names:
        try:
            checks.extend(SUITES[name](seed))
        except (MemoryError, RecursionError):
            raise
        except Exception as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:  # to the frame that raised
                tb = tb.tb_next
            error = f"{type(exc).__name__}: {exc}, raised in {tb.tb_frame.f_code.co_name}"
            checks.append((name, False, error))
    return checks
