import itertools
import math
import random

import pytest

from thetacomb.gamma import parse_group
from thetacomb.presheaf import (
    BoundarySquareError,
    _f2_chains,
    chain_complex,
    em_cells,
    em_cell_count,
    em_chains,
    em_set,
    em_words,
    homology_f2,
    gf2_rank,
    is_nondegenerate,
    oracle_multisimplicial,
    shuffles,
    word_cell,
)
from thetacomb.theta import codim1_faces, hom_theta, is_retraction, peel
from thetacomb.trees import LEAF, enumerate_trees
from thetacomb.simplex import SimplicialOperator

from oracles import (
    corolla, diagonal, em_elements, is_identity, linear_tree, listed_set, parse_tree,
    product_set,
)
from test_acceptance import cartan_multigraded_z2, serre_betti_z2, serre_bigraded_z2
from test_trees import is_pruned

Z2 = parse_group("z2")
Z3 = parse_group("z3")
Z4 = parse_group("z4")
Z2Z2 = parse_group("z2xz2")


def test_em_eval():
    assert len(em_elements(Z2, 1, corolla(3))) == 8
    assert em_elements(Z2, 1, LEAF) == [()]
    assert em_elements(Z2, 2, corolla(3)) == [()]  # height < n: singleton basepoint
    assert len(em_elements(Z2, 2, parse_tree("[[[]],[[],[]]]"))) == 8
    with pytest.raises(ValueError, match="level n must be >= 1"):
        em_set(Z2, 0)


def test_em_act_degeneracy_inserts_neutral():
    x = em_set(Z2, 1)
    d = diagonal([SimplicialOperator(3, 2, (0, 1, 1, 2))])
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
                    for el in em_elements(pi, n, u)[:6]:
                        assert x.act(f, x.act(g, el)) == x.act(gf, el)


def reduce_element(x_set, tree, x):
    """The unique non-degenerate core of x: a tree U, a degeneracy
    d: S -> U and a non-degenerate y over U with act(d, y) = x."""
    return peel(tree, x_set.level, x_set.act, x)


def test_reduce_examples():
    x = em_set(Z2, 1)
    a, b = (1,), (1,)
    tree, deg, y = reduce_element(x, corolla(3), (a, (0,), b))
    assert tree == corolla(2) and y == (a, b)
    assert deg.phi.values == (0, 1, 1, 2)
    assert x.act(deg, y) == (a, (0,), b)
    # already reduced
    tree, deg, y = reduce_element(x, corolla(2), (a, b))
    assert tree == corolla(2) and is_identity(deg) and y == (a, b)
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
                for el in em_elements(pi, n, t):
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
            cores = {el: set() for el in em_elements(pi, n, t)}
            for u in trees:
                if u.edges > t.edges:
                    continue
                for r in hom_theta(t, u, n):
                    if not is_retraction(r):
                        continue
                    for y in em_elements(pi, n, u):
                        if is_nondegenerate(x, u, y):
                            cores[x.act(r, y)].add((u, y))
            for el in em_elements(pi, n, t):
                u, deg, y = reduce_element(x, t, el)
                assert cores[el] == {(u, y)}


def test_census_examples():
    assert [len(em_set(Z2, 2).cells(d)) for d in range(8)] == [1, 0, 1, 1, 2, 3, 5, 8]
    assert [len(em_set(Z3, 1).cells(d)) for d in range(4)] == [1, 2, 4, 8]
    assert [len(em_set(Z2, 3).cells(d)) for d in range(4)] == [1, 0, 0, 1]


def test_census_matches_counting_module():
    from thetacomb.counting import fib_numbers

    for n in range(1, 4):
        for p_spec in ("z2", "z3", "z2xz2"):
            pi = parse_group(p_spec)
            bound = n + 5
            census = [len(em_set(pi, n).cells(d)) for d in range(bound + 1)]
            fib = fib_numbers(n, pi.order, 5)
            assert census[0] == 1
            assert all(census[d] == 0 for d in range(1, n))
            assert [census[n + k] for k in range(6)] == fib


@pytest.mark.parametrize(
    "spec, n, bound",
    [("z2", 1, 11), ("z2", 2, 8), ("z2", 3, 8), ("z3", 1, 7), ("z3", 2, 6),
     ("z2xz2", 1, 5), ("z2xz2", 2, 5)],
)
def test_em_fast_paths_match_generic_walk(spec, n, bound):
    # the same K(pi,n) listed generically tests every element over every
    # tree of height <= n with is_nondegenerate
    pi = parse_group(spec)
    x = em_set(pi, n)
    generic = chain_complex(listed_set(n, lambda t: em_elements(pi, n, t), x.act), bound)
    assert generic.basis == [em_cells(pi, n, d) for d in range(bound + 1)]
    assert generic.ranks == chain_complex(x, bound).ranks


@pytest.mark.parametrize(
    "spec, n, bound",
    [("z2", 1, 7), ("z3", 1, 6), ("z2", 2, 9), ("z3", 2, 6), ("z4", 2, 5),
     ("z2xz2", 2, 5), ("z2", 3, 10), ("z3", 3, 7), ("z2", 4, 10), ("z5", 1, 5),
     ("z6", 1, 4), ("z6", 2, 5)],
)
def test_em_chains_match_theta_set_chains(spec, n, bound):
    # the labelled-tree boundary is the Theta_n-set boundary, matrix for matrix
    pi = parse_group(spec)
    bar, theta = em_chains(pi, n, bound), chain_complex(em_set(pi, n), bound)
    assert [[word_cell(n, w) for w in layer] for layer in bar.basis] == theta.basis
    assert bar.boundary == theta.boundary


@pytest.mark.parametrize(
    "n, bound, entries", [(1, 8, 0), (2, 11, 116), (3, 11, 254), (4, 11, 144)]
)
def test_z2_em_chains_keep_the_weight(n, bound, entries):
    # no face of a K(Z/2,n) cell changes its number of labels, so the
    # chains are the direct sum of their blocks of one weight
    c = em_chains(Z2, n, bound)
    cells = [[word_cell(n, w) for w in layer] for layer in c.basis]
    found = 0
    for d in range(1, bound + 1):
        for row, (_, labels) in zip(c.boundary[d], cells[d]):
            for i in range(row.bit_length()):
                if row >> i & 1:
                    assert len(cells[d - 1][i][1]) == len(labels)
                    found += 1
    assert found == entries


@pytest.mark.parametrize("n, bound", [(1, 8), (2, 11), (3, 11)])
def test_z2_em_chains_give_serres_bigraded_series(n, bound):
    # weight = number of labels; Sq^I iota_n has degree n + |I| and weight
    # 2^l(I).  Ranking the boundary rows of one weight at a time sees a
    # face that leaks between weights, which a per-degree check cannot
    c = em_chains(Z2, n, bound)
    cells = [[word_cell(n, w) for w in layer] for layer in c.basis]

    def block(d, w):
        return [row for row, (_, labels) in zip(c.boundary[d], cells[d]) if len(labels) == w]

    betti = [
        [len(block(d, w)) - gf2_rank(block(d, w)) - gf2_rank(block(d + 1, w))
         for w in range(bound)]
        for d in range(bound)
    ]
    assert betti == serre_bigraded_z2(n, bound)


def multidegree(n, word, width):
    """The multidegree c of a K(Z/2,n) bar word: its level-1 letters are
    its sub-words n - 1 deep, each x^a for its length a, and c_i counts
    those whose a has bit i set."""
    letters = [word]
    for _ in range(n - 1):
        letters = [letter for w in letters for letter in w]
    return tuple(sum(len(letter) >> i & 1 for letter in letters) for i in range(width))


@pytest.mark.parametrize("n, entries", [(1, 0), (2, 116), (3, 254), (4, 144)])
def test_z2_em_chains_give_cartans_multigraded_series(n, entries):
    # no face of a K(Z/2,n) cell changes its multidegree, which refines the
    # weight, so ranking block by block sees a face that leaks between them
    bound = 11
    c = em_chains(Z2, n, bound)
    keys = [[multidegree(n, w, bound.bit_length()) for w in layer] for layer in c.basis]
    found = 0
    for d in range(1, bound + 1):
        for row, key in zip(c.boundary[d], keys[d]):
            for i in range(row.bit_length()):
                if row >> i & 1:
                    assert keys[d - 1][i] == key
                    found += 1
    assert found == entries

    def block(d, m):
        return [row for row, key in zip(c.boundary[d], keys[d]) if key == m]

    betti = {}
    for d in range(bound):
        for m in set(keys[d]):
            b = len(block(d, m)) - gf2_rank(block(d, m)) - gf2_rank(block(d + 1, m))
            if b:
                betti[d, m] = b
    assert betti == cartan_multigraded_z2(n, bound)


def test_cartans_series_sum_to_serres_by_weight():
    for n in range(1, 6):
        by_weight = [[0] * 16 for _ in range(16)]
        for (d, m), betti in cartan_multigraded_z2(n, 16).items():
            by_weight[d][sum(x << i for i, x in enumerate(m))] += betti
        assert by_weight == serre_bigraded_z2(n, 16), n


@pytest.mark.parametrize("spec", ["z2", "z3", "z4", "z2xz2", "z6"])
def test_em_words_are_counted_by_em_cell_count(spec):
    pi = parse_group(spec)
    for n in range(1, 5):
        for d in range(n + 5):
            assert len(em_words(pi, n, d)) == em_cell_count(pi, n, d), (n, d)


def test_em_words_share_equal_sub_words():
    # the fold builds each branch's words once, so within a layer equal
    # sub-words, letters included, are one object
    for spec, n, d in (("z2", 3, 9), ("z3", 2, 6), ("z2xz2", 3, 7), ("z4", 4, 7)):
        seen: dict = {}
        visits = 0

        def walk(k, w):
            nonlocal visits
            visits += 1
            assert seen.setdefault(w, w) is w, (spec, n, d, w)
            if k:
                for letter in w:
                    walk(k - 1, letter)

        for w in em_words(parse_group(spec), n, d):
            for letter in w:
                walk(n - 1, letter)
        assert len(seen) < visits  # some sub-words recur


def test_product_census():
    square = product_set(corolla(1), corolla(1), 1)
    assert [len(square.cells(d)) for d in range(3)] == [4, 5, 2]
    assert len(product_set(corolla(2), corolla(1), 1).cells(3)) == 3
    # product with the terminal representable changes nothing: the cells
    # are those of Theta_1[corolla(2)], the injective operators into it
    lone = product_set(corolla(2), LEAF, 1)
    for d in range(3):
        assert len(lone.cells(d)) == len(
            [f for f in hom_theta(corolla(d), corolla(2), 1) if f.phi.is_injective]
        )


def test_product_top_counts_are_binomial():
    for m, n in itertools.product(range(4), repeat=2):
        if m + n == 0:
            continue
        top = product_set(corolla(m), corolla(n), 1).cells(m + n)
        assert len(top) == math.comb(m + n, m)


def _peeled_faces(x_set):
    """The faces of a cell by the earlier rule of chain_complex: peel each
    pulled-back face to its core with reduce_element and keep it iff the
    core has d - 1 edges, that is iff the face itself is non-degenerate."""
    def faces(d, cell):
        tree, x = cell
        for face in codim1_faces(tree, x_set.level):
            core, _, y = reduce_element(x_set, face.source, x_set.act(face, x))
            if core.edges == d - 1:
                yield core, y

    return faces


@pytest.mark.parametrize(
    "x_set, bound",
    [pytest.param(em_set(pi, n), bound, id=f"K({spec},{n})")
     for pi, spec, cases in ((Z2, "z2", ((1, 5), (2, 6), (3, 6), (4, 7))),
                             (Z3, "z3", ((1, 4), (2, 5), (3, 5))))
     for n, bound in cases]
    + [pytest.param(product_set(corolla(m), corolla(k), 1), m + k, id=f"D[{m}]xD[{k}]")
       for m in range(5) for k in range(5 - m)]
    + [pytest.param(product_set(linear_tree(2), corolla(1), 2), 3, id="Theta_2-product")],
)
def test_face_rule_matches_peeling(x_set, bound):
    # chain_complex keeps a face by is_nondegenerate; peeling to the core
    # must give the same boundary, matrix for matrix
    ours = chain_complex(x_set, bound)
    assert _f2_chains(ours.basis, _peeled_faces(x_set)).boundary == ours.boundary


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
    # a negative degree would read the top of the complex from the end
    for degree in (-1, -3):
        with pytest.raises(ValueError):
            homology_f2(c, degree)
    # a negative truncation has no degree 0 to start from
    with pytest.raises(ValueError, match="dimension bound -1 is negative"):
        chain_complex(em_set(Z2, 1), -1)
    with pytest.raises(ValueError, match="dimension bound -1 is negative"):
        em_chains(Z2, 1, -1)


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
    for spec, n, bound in (("z2", 1, 7), ("z3", 1, 6), ("z2", 2, 6), ("z4", 1, 5),
                           ("z6", 1, 4), ("z2xz2", 1, 5), ("z2xz3", 1, 4)):
        pi = parse_group(spec)
        c = chain_complex(em_set(pi, n), bound)
        ours = [homology_f2(c, d) for d in range(bound)]
        assert ours == oracle_multisimplicial(pi, n, bound)


def _addition_table(pi):
    """pi.add on the codes 0..|pi|-1 of pi.elements(); the neutral is 0."""
    code = {x: i for i, x in enumerate(pi.elements())}
    return [[code[pi.add(x, y)] for y in code] for x in code]


def _bar_faces(x, add):
    """The faces of a k-simplex [x_1|...|x_k] of a nerve: drop x_1, merge
    x_i and x_{i+1} by add, drop x_k."""
    yield x[1:]
    for i in range(1, len(x)):
        yield x[: i - 1] + (add(x[i - 1], x[i]),) + x[i + 1 :]
    yield x[:-1]


def reference_double_nerve_chains(pi, dim_bound):
    """The total complex of the doubly-normalized F2 chains of the double
    nerve of pi, a bisimplicial model of K(pi,2): a cell (a, b, matrix) in
    bidegree (a, b) holds an a x b matrix of entry codes, as rows of
    tuples, without an all-neutral row or column (or is the 0 x 0 one).
    Horizontal faces are the bar faces of the rows; vertical faces
    transpose the matrix, take its bar faces and transpose back."""
    table = _addition_table(pi)

    def nondeg(a, b, matrix):
        if not (a and b):
            return a == b == 0
        return all(map(any, matrix)) and all(map(any, zip(*matrix)))

    def add_rows(u, v):
        return tuple(map(list.__getitem__, map(table.__getitem__, u), v))

    def faces(d, cell):
        a, b, matrix = cell
        for face in _bar_faces(matrix, add_rows):
            if nondeg(a - 1, b, face):
                yield a - 1, b, face
        for face in _bar_faces(tuple(zip(*matrix)), add_rows):
            face = tuple(zip(*face))
            if nondeg(a, b - 1, face):
                yield a, b - 1, face

    basis = [
        [
            (a, d - a, matrix)
            for a in range(d + 1)
            for matrix in itertools.product(
                list(itertools.product(range(len(table)), repeat=d - a)), repeat=a
            )
            if nondeg(a, d - a, matrix)
        ]
        for d in range(dim_bound + 1)
    ]
    return _f2_chains(basis, faces)


def double_nerve_betti(pi, bound):
    complex_ = reference_double_nerve_chains(pi, bound)
    return [homology_f2(complex_, d) for d in range(bound)]


@pytest.mark.parametrize(
    "spec, bound",
    [("z1", 4), ("z2", 7), ("z3", 5), ("z4", 5), ("z2xz2", 5), ("z6", 4)],
)
def test_oracle_matches_double_nerve(spec, bound):
    pi = parse_group(spec)
    for dim_bound in (0, 1, 2, bound):
        assert oracle_multisimplicial(pi, 2, dim_bound) == double_nerve_betti(pi, dim_bound)


@pytest.mark.parametrize("spec, bound", [("z2", 7), ("z3", 6), ("z4", 5), ("z2xz2", 5)])
def test_em_chains_homology_vs_double_nerve(spec, bound):
    pi = parse_group(spec)
    c = em_chains(pi, 2, bound)
    assert [homology_f2(c, d) for d in range(bound)] == double_nerve_betti(pi, bound)


@pytest.mark.parametrize("n", range(1, 6))
def test_oracle_is_serres_series(n):
    # Z/2^r and Z/2 x Z/3 have the F2 series of Z/2; odd orders are acyclic
    for spec in ("z2", "z4", "z6"):
        assert oracle_multisimplicial(parse_group(spec), n, 31) == serre_betti_z2(n, 31)
    for spec in ("z1", "z3", "z5", "z9", "z3xz5"):
        assert oracle_multisimplicial(parse_group(spec), n, 31) == [1] + [0] * 30
    # Kunneth: the series of Z/2 x Z/2 is the Cauchy square of Z/2's
    z2 = serre_betti_z2(n, 31)
    square = [sum(z2[i] * z2[d - i] for i in range(d + 1)) for d in range(31)]
    assert oracle_multisimplicial(Z2Z2, n, 31) == square


def test_shuffles_of_equal_letters_follow_lucas():
    # the one word x^(a+b) arises C(a+b, a) times, which is odd iff
    # a & b == 0 (Lucas)
    for a, b in itertools.product(range(9), repeat=2):
        word = ("x",) * (a + b)
        assert shuffles(("x",) * a, ("x",) * b) == ((word,) if a & b == 0 else ())


def test_shuffles_are_the_interleavings_of_odd_multiplicity():
    words = [w for k in range(4) for w in itertools.product("xy", repeat=k)]
    for u, v in itertools.product(words, repeat=2):
        counts = {}
        size = len(u) + len(v)
        for picks in itertools.combinations(range(size), len(u)):
            lefts, rights = iter(u), iter(v)
            merged = tuple(next(lefts) if i in picks else next(rights) for i in range(size))
            counts[merged] = counts.get(merged, 0) + 1
        odd = [w for w, count in counts.items() if count % 2]
        assert sorted(shuffles(u, v)) == sorted(odd)
        assert len(set(shuffles(u, v))) == len(shuffles(u, v))


def test_oracle_examples():
    assert oracle_multisimplicial(Z2, 1, 7) == [1, 1, 1, 1, 1, 1, 1]
    assert oracle_multisimplicial(Z2, 2, 6)[:3] == [1, 0, 1]
    assert oracle_multisimplicial(Z3, 2, 4)[2] == 0  # no 2-torsion in H_2
    # K(Z/2,3): generators iota_3, Sq^1, Sq^2, Sq^2 Sq^1, Sq^3 Sq^1
    assert oracle_multisimplicial(Z2, 3, 9) == [1, 0, 0, 1, 1, 1, 2, 2, 2]
    assert oracle_multisimplicial(Z2, 3, 0) == []
    with pytest.raises(ValueError):
        oracle_multisimplicial(Z2, 0, 4)


def test_em_property_at_chain_level():
    expected_rank = {"z2": 1, "z3": 0, "z4": 1, "z2xz2": 2}
    for spec, rank in expected_rank.items():
        pi = parse_group(spec)
        for n in range(1, 4):
            c = chain_complex(em_set(pi, n), n + 1)
            for k in range(1, n):
                assert homology_f2(c, k) == 0
            assert homology_f2(c, n) == rank
