import itertools
import math
import random

import pytest

from thetacomb.gamma import parse_group
from thetacomb.presheaf import (
    BoundarySquareError,
    _f2_chains,
    cell_census,
    chain_complex,
    em_set,
    homology_f2,
    gf2_rank,
    is_nondegenerate,
    oracle_multisimplicial,
    product_census,
    product_set,
    reduce_element,
)
from thetacomb.theta import ThetaOperator, hom_theta, is_retraction
from thetacomb.trees import LEAF, corolla, enumerate_trees, is_pruned, parse_tree
from thetacomb.simplex import SimplicialOperator

Z2 = parse_group("z2")
Z3 = parse_group("z3")
Z4 = parse_group("z4")
Z2Z2 = parse_group("z2xz2")


def test_em_eval():
    x = em_set(Z2, 1)
    assert len(x.eval(corolla(3))) == 8
    assert x.eval(LEAF) == [()]
    y = em_set(Z2, 2)
    assert y.eval(corolla(3)) == [()]  # height < n: singleton basepoint
    assert len(y.eval(parse_tree("[[[]],[[],[]]]"))) == 8


def test_em_act_degeneracy_inserts_neutral():
    x = em_set(Z2, 1)
    d = ThetaOperator(1, corolla(3), corolla(2), SimplicialOperator(3, 2, (0, 1, 1, 2)))
    a, b = (1,), (1,)
    assert x.act(d, (a, b)) == (a, (0,), b)


def test_em_act_functorial():
    for spec, n, bound in (("z2", 1, 4), ("z3", 2, 4), ("z2", 3, 4)):
        pi = parse_group(spec)
        x = em_set(pi, n)
        trees = [t for e in range(bound) for t in enumerate_trees(n, e)]
        for s, t, u in itertools.product(trees, repeat=3):
            for f in hom_theta(s, t, n)[:4]:
                for g in hom_theta(t, u, n)[:4]:
                    from thetacomb.theta import compose_theta

                    gf = compose_theta(g, f)
                    for el in x.eval(u)[:6]:
                        assert x.act(f, x.act(g, el)) == x.act(gf, el)


def test_reduce_examples():
    x = em_set(Z2, 1)
    a, b = (1,), (1,)
    tree, deg, y = reduce_element(x, corolla(3), (a, (0,), b))
    assert tree == corolla(2) and y == (a, b)
    assert deg.phi.values == (0, 1, 1, 2)
    assert x.act(deg, y) == (a, (0,), b)
    # already reduced
    tree, deg, y = reduce_element(x, corolla(2), (a, b))
    assert tree == corolla(2) and deg.is_identity and y == (a, b)
    # all-neutral at n=2 collapses to the basepoint
    x2 = em_set(Z2, 2)
    t = parse_tree("[[[]],[[]]]")
    tree, deg, y = reduce_element(x2, t, (((0,), (0,))))
    assert tree == LEAF and y == ()


def test_nondegenerate_characterization():
    # generic reduction agrees with pruned-tree + non-neutral labels
    for pi, n in ((Z2, 2), (Z3, 1)):
        x = em_set(pi, n)
        for e in range(5):
            for t in enumerate_trees(n, e):
                for el in x.eval(t):
                    fast = (t == LEAF or is_pruned(t, n)) and all(
                        v != pi.neutral for v in el
                    )
                    assert is_nondegenerate(x, t, el) == fast


def test_reduce_uniqueness_brute_force():
    # all (retraction, preimage) pairs find exactly one non-degenerate core
    cases = [(Z2, 2, 5), (Z3, 1, 4)]
    for pi, n, bound in cases:
        x = em_set(pi, n)
        trees = [u for e in range(bound + 1) for u in enumerate_trees(n, e)]
        for t in trees:
            cores = {el: set() for el in x.eval(t)}
            for u in trees:
                if u.edges > t.edges:
                    continue
                for r in hom_theta(t, u, n):
                    if not is_retraction(r):
                        continue
                    for y in x.eval(u):
                        if is_nondegenerate(x, u, y):
                            cores[x.act(r, y)].add((u, y))
            for el in x.eval(t):
                u, deg, y = reduce_element(x, t, el)
                assert cores[el] == {(u, y)}


def test_census_examples():
    assert list(cell_census(em_set(Z2, 2), 7).values()) == [1, 0, 1, 1, 2, 3, 5, 8]
    assert list(cell_census(em_set(Z3, 1), 3).values()) == [1, 2, 4, 8]
    assert list(cell_census(em_set(Z2, 3), 3).values()) == [1, 0, 0, 1]


def test_census_matches_counting_module():
    from thetacomb.counting import fib_numbers

    for n in range(1, 4):
        for p_spec in ("z2", "z3", "z2xz2"):
            pi = parse_group(p_spec)
            bound = n + 5
            census = cell_census(em_set(pi, n), bound)
            fib = fib_numbers(n, pi.order, 5)
            assert census[0] == 1
            assert all(census[d] == 0 for d in range(1, n))
            assert [census[n + k] for k in range(6)] == fib


def test_product_census():
    assert product_census(corolla(1), corolla(1), 1, 2) == {0: 4, 1: 5, 2: 2}
    assert product_census(corolla(2), corolla(1), 1, 3)[3] == 3
    # product with the terminal representable changes nothing
    lone = product_census(corolla(2), LEAF, 1, 2)
    alone = cell_census(
        product_set(corolla(2), LEAF, 1), 2
    )
    assert lone == alone
    for d, count in lone.items():
        assert count == len(
            [
                f
                for f in hom_theta(corolla(d), corolla(2), 1)
                if f.phi.is_injective
            ]
        ) * (1 if d else 1)


def test_product_top_counts_are_binomial():
    for m, n in itertools.product(range(4), repeat=2):
        if m + n == 0:
            continue
        census = product_census(corolla(m), corolla(n), 1, m + n)
        assert census[m + n] == math.comb(m + n, m)


def test_chain_boundary_is_zero_for_z2_nerve():
    c = chain_complex(em_set(Z2, 1), 6)
    assert all(row == 0 for rows in c.boundary for row in rows)


def test_degree_zero_boundary():
    c = chain_complex(em_set(Z3, 1), 3)
    assert c.boundary[0] == [0]
    # the 1-cells of K(Z/3,1) bound nothing: both endpoints are the basepoint
    assert c.boundary[1] == [0, 0]


def test_homology_truncation_error():
    c = chain_complex(em_set(Z2, 1), 3)
    with pytest.raises(ValueError):
        homology_f2(c, 3)


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b11, 0b01, 0b10]) == 2
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([1, 2, 4]) == 3
    # brute force: the rows span 2^rank distinct subset sums
    rng = random.Random(0)
    for _ in range(200):
        width = rng.randrange(1, 7)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(8))]
        span = set()
        for mask in range(1 << len(rows)):
            acc = 0
            for i, row in enumerate(rows):
                if mask >> i & 1:
                    acc ^= row
            span.add(acc)
        assert 2 ** gf2_rank(rows) == len(span)


def test_f2_chains_sums_faces_mod_2():
    # a 1-simplex whose two faces are the same vertex: its boundary
    # cancels; a second edge to a second vertex does not
    faces = {"e": ["v", "v"], "g": ["v", "w"]}
    c = _f2_chains([["v", "w"], ["e", "g"]], lambda d, cell: faces[cell])
    assert c.boundary == [[0, 0], [0, 0b11]]
    assert c.ranks == [0, 1]
    assert [homology_f2(c, 0)] == [1]


def test_f2_chains_rejects_nonzero_boundary_square():
    # f -> e -> v with single faces: the boundary of f's boundary is v
    faces = {"e": ["v"], "f": ["e"]}
    with pytest.raises(BoundarySquareError):
        _f2_chains([["v"], ["e"], ["f"]], lambda d, cell: faces[cell])


def test_f2_chains_rejects_face_outside_basis():
    with pytest.raises(KeyError):
        _f2_chains([["v"], ["e"]], lambda d, cell: ["w"])


def test_homology_vs_oracle():
    for spec, n, bound in (("z2", 1, 7), ("z3", 1, 6), ("z2", 2, 6)):
        pi = parse_group(spec)
        c = chain_complex(em_set(pi, n), bound)
        ours = [homology_f2(c, d) for d in range(bound)]
        assert ours == oracle_multisimplicial(pi, n, bound)


def test_oracle_examples():
    assert oracle_multisimplicial(Z2, 1, 7) == [1, 1, 1, 1, 1, 1, 1]
    assert oracle_multisimplicial(Z2, 2, 6)[:3] == [1, 0, 1]
    assert oracle_multisimplicial(Z3, 2, 4)[2] == 0  # no 2-torsion in H_2
    with pytest.raises(ValueError):
        oracle_multisimplicial(Z2, 3, 4)


def test_em_property_at_chain_level():
    expected_rank = {"z2": 1, "z3": 0, "z4": 1, "z2xz2": 2}
    for spec, rank in expected_rank.items():
        pi = parse_group(spec)
        for n in range(1, 4):
            c = chain_complex(em_set(pi, n), n + 1)
            for k in range(1, n):
                assert homology_f2(c, k) == 0
            assert homology_f2(c, n) == rank
