import itertools
import random

import pytest

from thetacomb.gamma import GammaOperator, identity_gamma
from thetacomb.simplex import SimplicialOperator, hom_delta, identity_delta
from thetacomb.theta import (
    ThetaCompositionError,
    ThetaOperator,
    ThetaShapeError,
    bang,
    classify_theta,
    codim1_retractions,
    compose_theta,
    diagonal,
    dim_theta,
    embed,
    gamma_n,
    hom_theta,
    identity_theta,
    is_face,
    is_retraction,
    reedy_factor,
    suspend,
)
from thetacomb.trees import (
    LEAF,
    LevelTree,
    corolla,
    enumerate_trees,
    linear_tree,
    parse_tree,
)


def homogeneous_tree(ks: list[int]) -> LevelTree:
    """The tree with ks[0] root branches, each with ks[1] branches, etc."""
    if not ks:
        return LEAF
    return LevelTree((homogeneous_tree(ks[1:]),) * ks[0])


def all_trees(n, max_edges):
    return [t for e in range(max_edges + 1) for t in enumerate_trees(n, e)]


def test_identity_and_validation():
    t = parse_tree("[[],[]]")
    i = identity_theta(t, 2)
    assert compose_theta(i, i) == i and i.is_identity
    assert identity_theta(LEAF, 1).phi == identity_delta(0)
    assert identity_theta(corolla(2), 1).phi == identity_delta(2)
    with pytest.raises(ThetaShapeError):
        identity_theta(linear_tree(2), 1)
    with pytest.raises(ThetaShapeError):
        ThetaOperator(1, corolla(2), corolla(1), identity_delta(1))


def test_terminal_tree():
    for t in all_trees(2, 3):
        assert hom_theta(t, LEAF, 2) == (bang(t, 2),)
        f = bang(t, 2)
        assert compose_theta(f, identity_theta(t, 2)) == f


def test_hom_counts_level1():
    assert len(hom_theta(corolla(1), corolla(1), 1)) == 3
    for m, n in itertools.product(range(4), repeat=2):
        assert len(hom_theta(corolla(m), corolla(n), 1)) == len(hom_delta(m, n))


def test_hom_matches_brute_force_blockwise_count():
    # independent count: sum over phi of the product of lower hom sizes
    for s, t in itertools.product(all_trees(2, 3), repeat=2):
        expected = 0
        for phi in hom_delta(len(s.children), len(t.children)):
            prod = 1
            for i in range(1, len(s.children) + 1):
                for k in range(phi(i - 1) + 1, phi(i) + 1):
                    prod *= len(
                        hom_theta(s.children[i - 1], t.children[k - 1], 1)
                    )
            expected += prod
        assert len(hom_theta(s, t, 2)) == expected


def test_compose_endpoint_errors():
    f = hom_theta(corolla(1), corolla(2), 2)[0]
    g = hom_theta(corolla(1), corolla(2), 2)[0]
    with pytest.raises(ThetaCompositionError):
        compose_theta(g, f)


def test_is_retraction():
    t = parse_tree("[[],[]]")
    assert is_retraction(identity_theta(t, 2))
    # collapse two branches onto one, one branch mapping trivially
    phi = SimplicialOperator(2, 1, (0, 0, 1))
    f = ThetaOperator(
        2, t, corolla(1), phi, ((), (identity_theta(LEAF, 1),))
    )
    assert is_retraction(f)
    for s, u in itertools.product(all_trees(2, 2), repeat=2):
        for f in hom_theta(s, u, 2):
            if not f.phi.is_surjective:
                assert not is_retraction(f)


def test_codim1_retraction_sections():
    for n in (1, 2, 3):
        for t in all_trees(n, 4):
            for r, s in codim1_retractions(t, n):
                assert r.target.edges == t.edges - 1
                assert is_retraction(r)
                assert compose_theta(r, s).is_identity


def test_reedy_factor_examples():
    d = ThetaOperator(1, corolla(3), corolla(2), SimplicialOperator(3, 2, (0, 1, 1, 2)))
    deg, face = reedy_factor(d)
    assert deg == d and face.is_identity
    f = ThetaOperator(1, corolla(1), corolla(2), SimplicialOperator(1, 2, (0, 2)))
    deg, face = reedy_factor(f)
    assert deg.is_identity and face == f


def test_reedy_factor_properties_n2():
    for s, t in itertools.product(all_trees(2, 3), repeat=2):
        for f in hom_theta(s, t, 2):
            deg, face = reedy_factor(f)
            assert compose_theta(face, deg) == f
            assert is_retraction(deg)
            assert is_face(face)


def test_mono_agrees_with_left_cancellation():
    trees = all_trees(2, 2)
    pool = {
        (s, t): hom_theta(s, t, 2) for s, t in itertools.product(trees, repeat=2)
    }
    for (s, t), ops in pool.items():
        for m in ops:
            cancels = True
            for u in trees:
                seen = {}
                for a in pool[(u, s)]:
                    key = compose_theta(m, a)
                    if key in seen and seen[key] != a:
                        cancels = False
                    seen[key] = a
            assert cancels == is_face(m), m


def test_closure_under_composition():
    trees = all_trees(2, 2)
    for s, t, u in itertools.product(trees, repeat=3):
        for f in hom_theta(s, t, 2):
            for g in hom_theta(t, u, 2):
                gf = compose_theta(g, f)
                if is_face(f) and is_face(g):
                    assert is_face(gf)
                if is_retraction(f) and is_retraction(g):
                    assert is_retraction(gf)


def test_classify_examples():
    t = parse_tree("[[]]")
    assert classify_theta(identity_theta(t, 2)) == "identity"
    id_leaf = identity_theta(LEAF, 1)
    outer = ThetaOperator(
        2, t, parse_tree("[[],[]]"), SimplicialOperator(1, 2, (1, 2)), ((id_leaf,),)
    )
    assert classify_theta(outer) == "outer-face"
    inner = ThetaOperator(
        2, t, parse_tree("[[],[]]"), SimplicialOperator(1, 2, (0, 2)),
        ((id_leaf, id_leaf),),
    )
    assert classify_theta(inner) == "inner-face"
    deg = ThetaOperator(
        1, corolla(3), corolla(2), SimplicialOperator(3, 2, (0, 1, 1, 2))
    )
    assert classify_theta(deg) == "degeneracy"
    mixed = ThetaOperator(1, corolla(2), corolla(2), SimplicialOperator(2, 2, (0, 0, 2)))
    assert classify_theta(mixed) == "mixed"


def test_faces_factor_inner_after_outer():
    trees = all_trees(2, 3)
    homs = {
        (s, t): hom_theta(s, t, 2) for s, t in itertools.product(trees, repeat=2)
    }
    face_cache = {
        pair: [f for f in ops if is_face(f)] for pair, ops in homs.items()
    }
    inner_cache = {
        pair: [f for f in ops if _inner(f)] for pair, ops in face_cache.items()
    }
    outer_cache = {
        pair: [f for f in ops if _outer(f)] for pair, ops in face_cache.items()
    }
    for (s, t), faces in face_cache.items():
        for f in faces:
            found = 0
            for mid in trees:
                for inner in inner_cache[(s, mid)]:
                    for outer in outer_cache[(mid, t)]:
                        if compose_theta(outer, inner) == f:
                            found += 1
            assert found == 1, f


def _inner(f):
    from thetacomb.theta import _is_inner_face

    return _is_inner_face(f)


def _outer(f):
    from thetacomb.theta import _is_outer_face

    return _is_outer_face(f)


def test_dim_theta():
    assert dim_theta(linear_tree(4)) == 4
    assert dim_theta(LEAF) == 0
    assert dim_theta(corolla(3)) == 3

    def wreath_dim(t):
        return len(t.children) + sum(wreath_dim(c) for c in t.children)

    for n in range(1, 5):
        for e in range(9):
            for t in enumerate_trees(n, e):
                assert dim_theta(t) == e == wreath_dim(t)


def test_gamma_n_examples():
    t = parse_tree("[[[]],[[],[]]]")
    assert gamma_n(identity_theta(t, 2)) == identity_gamma(3)
    # target of height < n gives the null object
    f = bang(t, 2)
    assert gamma_n(f) == GammaOperator(3, 0, ((), (), ()))
    d = ThetaOperator(1, corolla(3), corolla(2), SimplicialOperator(3, 2, (0, 1, 1, 2)))
    assert gamma_n(d).subsets == ((1,), (), (2,))


def test_suspend():
    base = identity_theta(LEAF, 1)
    s = suspend(base)
    assert s.source == parse_tree("[[]]") and s.is_identity
    assert suspend(s).source == linear_tree(2) and suspend(s).is_identity
    d = ThetaOperator(1, corolla(3), corolla(2), SimplicialOperator(3, 2, (0, 1, 1, 2)))
    sd = suspend(d)
    assert sd.source == parse_tree("[[[],[],[]]]")
    assert sd.target == parse_tree("[[[],[]]]")
    assert sd.phi == identity_delta(1)
    assert gamma_n(sd) == gamma_n(d)


def test_suspension_triangle_on_sample():
    for s, t in itertools.product(all_trees(2, 3), repeat=2):
        for f in hom_theta(s, t, 2):
            assert gamma_n(suspend(f)) == gamma_n(f)


def test_embed_full():
    trees = all_trees(2, 4)
    for s, t in itertools.product(trees, repeat=2):
        ops = hom_theta(s, t, 2)
        images = {embed(f) for f in ops}
        assert len(images) == len(ops)
        assert len(hom_theta(s, t, 3)) == len(ops)
        assert images == set(hom_theta(s, t, 3))
    # classification is preserved
    for s, t in itertools.product(all_trees(2, 3), repeat=2):
        for f in hom_theta(s, t, 2):
            assert classify_theta(embed(f)) == classify_theta(f)


def test_diagonal():
    f = SimplicialOperator(1, 1, (0, 1))
    assert diagonal([f]).phi == f and diagonal([f]).level == 1
    assert homogeneous_tree([1, 1]) == parse_tree("[[[]]]")
    ids = [identity_delta(2), identity_delta(1)]
    assert diagonal(ids).is_identity
    g = SimplicialOperator(1, 1, (0, 0))
    d = diagonal([f, g])
    assert d.level == 2
    assert d.source == homogeneous_tree([1, 1])
    assert d.phi == f
    assert d.components[0][0].phi == g


def test_diagonal_functorial():
    from thetacomb.simplex import compose_delta

    rng = random.Random(3)
    homs = {
        (a, b): hom_delta(a, b) for a, b in itertools.product(range(3), repeat=2)
    }
    for _ in range(60):
        a, b, c = (rng.randrange(3) for _ in range(3))
        fs = [rng.choice(homs[(a, b)]) for _ in range(3)]
        gs = [rng.choice(homs[(b, c)]) for _ in range(3)]
        lhs = diagonal([compose_delta(g, f) for g, f in zip(gs, fs)])
        rhs = compose_theta(diagonal(gs), diagonal(fs))
        assert lhs == rhs


def test_json_round_shape():
    import json

    t = parse_tree("[[]]")
    f = hom_theta(t, t, 2)[0]
    data = json.loads(f.to_json())
    assert set(data) == {"level", "src", "tgt", "phi", "components"}
    assert data["level"] == 2 and data["src"] == "[[]]"
