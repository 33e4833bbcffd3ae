import copy
import itertools
import math
import operator
import os
import pickle
import random
import subprocess
import sys

import pytest

from thetacomb.hashcons import intern
from thetacomb.gamma import GammaOperator, compose_gamma, identity_gamma
from thetacomb.simplex import (
    SimplicialOperator,
    compose_delta,
    hom_delta,
    identity_delta,
)
from thetacomb.theta import (
    ThetaCompositionError,
    ThetaOperator,
    ThetaShapeError,
    _compose_component,
    _plan,
    _shuffle_pairs,
    codim1_faces,
    codim1_retractions,
    compose_after,
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
from thetacomb.trees import LEAF, LevelTree, enumerate_trees
from thetacomb import verify
from thetacomb.verify import composition_table, sample_trees

from oracles import (
    _is_outer_face,
    _preserves_endpoints,
    bang,
    classify_theta,
    corolla,
    diagonal,
    embed,
    is_identity,
    linear_tree,
    parse_tree,
    segal_gamma,
)
from test_startup import PACKAGE_PATH, TESTS_PATH


POINT = identity_theta(LEAF, 0)


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
    assert compose_theta(i, i) == i and is_identity(i)
    assert identity_theta(LEAF, 1).phi == identity_delta(0)
    assert identity_theta(corolla(2), 1).phi == identity_delta(2)
    # a tree too tall for its level fails at its innermost component
    with pytest.raises(ThetaShapeError, match="level -1 is below 0"):
        identity_theta(linear_tree(2), 1)
    with pytest.raises(ThetaShapeError):
        ThetaOperator(1, corolla(2), corolla(1), identity_delta(1), ((POINT,),))
    with pytest.raises(ThetaShapeError):
        identity_theta(LEAF, -1)
    with pytest.raises(ThetaShapeError):
        hom_theta(LEAF, LEAF, -1)


def test_shape_errors_leave_no_entry():
    # a rejected value leaves no entry in the table, so it is rejected again
    one, two = identity_delta(1), identity_delta(2)
    leaf = identity_theta(LEAF, 1)
    cases = [
        ((-1, LEAF, LEAF, identity_delta(0), ()), "level -1 is below 0"),
        ((2, corolla(2), corolla(2), one, ()),
         "phi endpoints do not match root valences"),
        ((1, corolla(1), corolla(1), one, ((leaf,),)),
         "component of row 1 at target branch 1 has level 1"),
        ((2, corolla(2), corolla(2), two, ((leaf,),)),
         "one component row per source branch required"),
        ((2, corolla(2), corolla(2), two, ((leaf, leaf), (leaf,))),
         "component row 1 does not match block"),
        ((2, corolla(2), corolla(2), two, ((leaf,), (identity_theta(LEAF, 2),))),
         "component of row 2 at target branch 2 has level 2"),
        # id_[0] over the branch [[]], which needs id_[1]: accepted, it would
        # read as an identity
        ((2, linear_tree(2), linear_tree(2), one, ((leaf,),)),
         "component of row 1 at target branch 1 does not start at source branch 1"),
        ((2, corolla(2), LevelTree((LEAF, corolla(1))), two, ((leaf,), (leaf,))),
         "component of row 2 at target branch 2 does not end at target branch 2"),
        # a branch outside every block has no component to bound its height
        ((1, linear_tree(2), LEAF, SimplicialOperator(1, 0, (0, 0)), ((),)),
         "level-1 trees must have height <= 1"),
        ((2, LevelTree((linear_tree(2),)), LEAF, SimplicialOperator(1, 0, (0, 0)), ((),)),
         "level-2 trees must have height <= 2"),
    ]
    before = intern.cache_info().currsize
    for args, message in cases:
        for _ in range(2):
            with pytest.raises(ThetaShapeError) as error:
                ThetaOperator(*args)
            assert str(error.value) == message and intern.cache_info().currsize == before


def test_level_0_is_the_point():
    # Theta_0 has one object, the leaf, and one operator, its identity
    assert hom_theta(LEAF, LEAF, 0) == (POINT,)
    assert compose_theta(POINT, POINT) is POINT and is_identity(POINT)
    assert suspend(POINT) is identity_theta(corolla(1), 1)
    assert embed(POINT) is identity_theta(LEAF, 1)
    assert gamma_n(suspend(POINT)) == gamma_n(POINT) == identity_gamma(1)
    # a level-1 operator carries one point in each slot of each block
    f = diagonal([SimplicialOperator(2, 3, (0, 2, 3))])
    assert f.components == ((POINT, POINT), (POINT,))


def test_gamma_1_is_segal_gamma():
    # gamma_n at level 1, built from the points, against Segal's formula
    ops = [
        f
        for a, b in itertools.product(range(5), repeat=2)
        for f in hom_theta(corolla(a), corolla(b), 1)
    ]
    assert len(ops) == 456
    for f in ops:
        assert gamma_n(f) is segal_gamma(f.phi), f


def test_operators_are_hash_consed():
    t = parse_tree("[[],[[]]]")
    f = identity_theta(t, 2)
    assert identity_theta(parse_tree("[[],[[]]]"), 2) is f
    assert ThetaOperator(1, LEAF, LEAF, identity_delta(0), ()) is identity_theta(LEAF, 1)
    assert compose_theta(f, f) is f
    assert type(f).__eq__ is object.__eq__ and type(f).__hash__ is object.__hash__
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied is f
    with pytest.raises(AttributeError):
        f.level = 3
    with pytest.raises(AttributeError):
        del f.components
    assert not hasattr(f, "__dict__") and f.level == 2
    assert repr(identity_theta(LEAF, 1)) == (
        "ThetaOperator(level=1, source=LevelTree('[]'), target=LevelTree('[]'), "
        "phi=SimplicialOperator(source=0, target=0, values=(0,)), components=())"
    )


def test_init_can_be_wrapped_to_count_constructions(monkeypatch):
    # a wrapper of __init__ sees every call of the constructor, new or
    # interned; compose_theta interns its composites directly, so it does
    # not see them (test_each_new_composite_is_built_once counts those)
    calls = []
    init = ThetaOperator.__init__

    def counted(*args, **kwargs):
        calls.append(args)
        return init(*args, **kwargs)

    monkeypatch.setattr(ThetaOperator, "__init__", counted)
    for _ in range(2):
        identity_theta(corolla(2), 2)
    assert len(calls) == 6


# in a fresh interpreter, compose every pair of hom(t, u) x hom(s, t) at
# n = 2 twice, counting _build calls at level 2; s -> u is in neither hom,
# so no level-2 composite exists before the first pass
BUILT_ONCE = """
import sys
from thetacomb.theta import ThetaOperator, compose_theta, hom_theta
from oracles import parse_tree

s, t, u = map(parse_tree, sys.argv[1:])
pairs = [(g, f) for f in hom_theta(s, t, 2) for g in hom_theta(t, u, 2)]
built = []
build = ThetaOperator._build

def counted(self):
    if self.level == 2:
        built.append(self)
    build(self)

ThetaOperator._build = counted
first = [compose_theta(g, f) for g, f in pairs]
fresh = len(built)
second = [compose_theta(g, f) for g, f in pairs]
same = all(a is b for a, b in zip(first, second))
print(len(pairs), len(set(first)), fresh, len(built), same)
"""


def test_each_new_composite_is_built_once():
    # compose_theta interns its composites directly: each new one is
    # checked by _build exactly once, and composing again builds nothing
    result = subprocess.run(
        [sys.executable, "-c", BUILT_ONCE, "[[[]],[]]", "[[[],[]]]", "[[[]],[[]]]"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([PACKAGE_PATH, TESTS_PATH])},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["297", "26", "26", "26", "True"]


def test_a_list_field_is_rejected_when_built():
    # each field is hashed into the table key as the operator is built
    t = corolla(1)
    with pytest.raises(TypeError):
        SimplicialOperator(1, 1, [0, 1])
    with pytest.raises(TypeError):
        GammaOperator(1, 1, [(1,)])
    with pytest.raises(TypeError):
        ThetaOperator(2, t, t, identity_delta(1), [(identity_theta(LEAF, 1),)])


def test_composition_table_entries_are_the_listed_operators():
    trees = sample_trees(2, 3)
    for s, t, u in itertools.product(trees, repeat=3):
        hom_su, hom_tu = hom_theta(s, u, 2), hom_theta(t, u, 2)
        for f, row in zip(hom_theta(s, t, 2), composition_table(s, t, u)):
            for g, k in zip(hom_tu, row):
                assert compose_theta(g, f) is hom_su[k]


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
                for k in range(phi.values[i - 1] + 1, phi.values[i] + 1):
                    prod *= len(
                        hom_theta(s.children[i - 1], t.children[k - 1], 1)
                    )
            expected += prod
        assert len(hom_theta(s, t, 2)) == expected


def test_hom_order_is_lexicographic_row_by_row():
    # verify's byte tables, the n = 3 sample and presheaf tests rely on it;
    # trees up to 4 edges give two rows with two or more choices each
    def key(f):
        rows = tuple(
            tuple(hom_theta(c.source, c.target, c.level).index(c) for c in row)
            for row in f.components
        )
        return f.phi.values, rows

    for n in (1, 2, 3):
        for s, t in itertools.product(all_trees(n, 4), repeat=2):
            keys = [key(f) for f in hom_theta(s, t, n)]
            assert keys == sorted(set(keys)), (n, s, t)


def test_nth_theta_is_hom_theta_at_that_index():
    for n in (1, 2, 3):
        for s, t in itertools.product(all_trees(n, 3), repeat=2):
            homs = hom_theta(s, t, n)
            assert hom_size(s, t, n) == len(homs)
            assert all(nth_theta(s, t, n, i) is f for i, f in enumerate(homs)), (n, s, t)
            with pytest.raises(IndexError):
                nth_theta(s, t, n, len(homs))


def test_the_n3_sample_draws_what_choice_would(monkeypatch):
    # randrange(len) and choice read the same random stream, so each seed
    # draws the operators that rng.choice(hom_theta(...)) draws
    drawn = []

    def recording(*args):
        drawn.append(nth_theta(*args))
        return drawn[-1]

    monkeypatch.setattr(verify, "nth_theta", recording)
    trees3 = sample_trees(3, 4)
    for seed in range(10):
        drawn.clear()
        verify.suite_wreath_laws(seed)
        rng = random.Random(seed)
        chosen = []
        for _ in range(40):
            s, t, u, v = (rng.choice(trees3) for _ in range(4))
            chosen.extend(rng.choice(hom_theta(a, b, 3)) for a, b in ((s, t), (t, u), (u, v)))
        assert len(drawn) == 120 and all(map(operator.is_, drawn, chosen)), seed


def wreath_compose(g, f):
    """g after f by the wreath definition: component (i, l) is g's
    operator at (k, l) after f's at (i, k), for the unique k in f's block
    i whose g-block holds l."""
    phi = compose_delta(g.phi, f.phi)
    rows = []
    for i in range(1, f.phi.source + 1):
        row = []
        for l in range(phi.values[i - 1] + 1, phi.values[i] + 1):
            (k,) = [
                k
                for k in range(f.phi.values[i - 1] + 1, f.phi.values[i] + 1)
                if g.phi.values[k - 1] < l <= g.phi.values[k]
            ]
            g_kl = g.components[k - 1][l - g.phi.values[k - 1] - 1]
            f_ik = f.components[i - 1][k - f.phi.values[i - 1] - 1]
            row.append(wreath_compose(g_kl, f_ik))
        rows.append(tuple(row))
    return ThetaOperator(f.level, f.source, g.target, phi, tuple(rows))


def test_compose_matches_wreath_definition():
    trees = all_trees(2, 2)
    for s, t, u in itertools.product(trees, repeat=3):
        for f in hom_theta(s, t, 2):
            for g in hom_theta(t, u, 2):
                assert compose_theta(g, f) == wreath_compose(g, f)
    rng = random.Random(0)
    trees = all_trees(3, 4)
    for _ in range(200):
        s, t, u = (rng.choice(trees) for _ in range(3))
        f = rng.choice(hom_theta(s, t, 3))
        g = rng.choice(hom_theta(t, u, 3))
        assert compose_theta(g, f) == wreath_compose(g, f)


def test_compose_endpoint_errors():
    f = hom_theta(corolla(1), corolla(2), 2)[0]
    g = hom_theta(corolla(1), corolla(2), 2)[0]
    with pytest.raises(ThetaCompositionError):
        compose_theta(g, f)


MEMOS = (compose_delta, compose_gamma, _compose_component, _plan)


def composable_pairs():
    """(g, f) for every composable pair over the level-2 trees with at most
    2 edges, then 100 random pairs over the level-3 trees with at most 4."""
    rng = random.Random(1)
    trees3 = all_trees(3, 4)
    pairs = [
        (g, f)
        for s, t, u in itertools.product(all_trees(2, 2), repeat=3)
        for f in hom_theta(s, t, 2)
        for g in hom_theta(t, u, 2)
    ]
    for _ in range(100):
        s, t, u = (rng.choice(trees3) for _ in range(3))
        pairs.append((rng.choice(hom_theta(t, u, 3)), rng.choice(hom_theta(s, t, 3))))
    return pairs


def test_compose_memos_are_transparent():
    # the components go through the memoised composite, the top level not
    assert _compose_component.__wrapped__ is compose_theta
    assert not hasattr(compose_theta, "cache_info")
    pairs = composable_pairs()
    composites = [compose_theta(g, f) for g, f in pairs]
    assert [_compose_component(g, f) for g, f in pairs] == composites
    for memo in MEMOS:
        memo.cache_clear()
    assert all(compose_theta(g, f) is gf for (g, f), gf in zip(pairs, composites))


def test_a_batch_composes_as_its_pairs_do():
    # one compose_after call per f, over every g that f's pairs hold, into
    # every target: the same objects as one compose_theta call per pair
    batches = {}
    for g, f in composable_pairs():
        batches.setdefault(f, []).append(g)
    shortcut = loop = 0
    for f, gs in batches.items():
        composites = compose_after(gs, f)
        assert all(map(operator.is_, composites, [compose_theta(g, f) for g in gs]))
        assert composites == [wreath_compose(g, f) for g in gs]
        for gf in composites:
            if gf.phi.values[0] == gf.phi.values[-1]:
                shortcut += bool(gf.source.children)
            else:
                loop += 1
    # both branches run: constant phi over a source with branches, and not
    assert shortcut and loop


def test_refused_composites_leave_no_memo_entry():
    f = hom_theta(corolla(1), corolla(2), 2)[0]
    level_1 = hom_theta(corolla(2), corolla(1), 1)[0]
    g = hom_theta(corolla(2), corolla(1), 2)[0]
    refused = ((f, "endpoint mismatch"), (level_1, "level mismatch"))
    for memo in MEMOS:
        memo.cache_clear()
    before = [memo.cache_info().currsize for memo in MEMOS]

    def refused_first(bad, f):
        return compose_after((bad, g), f)

    for compose in (compose_theta, _compose_component, refused_first):
        for bad, message in refused:
            for _ in range(2):
                with pytest.raises(ThetaCompositionError, match=message):
                    compose(bad, f)
                assert [memo.cache_info().currsize for memo in MEMOS] == before
    # a refused g after an accepted one raises as it would alone
    for bad, message in refused:
        with pytest.raises(ThetaCompositionError, match=message):
            compose_after((g, bad), f)


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
                assert s in codim1_faces(t, n)
                assert is_identity(compose_theta(r, s))


def test_codim1_retractions_are_complete():
    # every retraction onto a tree with one edge fewer, each once
    for n in (1, 2, 3):
        for e in range(1, 6):
            targets = enumerate_trees(n, e - 1)
            for t in enumerate_trees(n, e):
                pairs = codim1_retractions(t, n)
                retractions = [r for r, _ in pairs]
                assert len(set(retractions)) == len(retractions), t
                want = {
                    f for u in targets for f in hom_theta(t, u, n) if is_retraction(f)
                }
                assert set(retractions) == want, (n, t)
                assert all(is_face(s) for _, s in pairs), t


def test_codim1_retractions_are_cached_tuples():
    t = parse_tree("[[],[[]]]")
    pairs = codim1_retractions(t, 2)
    assert isinstance(pairs, tuple) and codim1_retractions(t, 2) is pairs


def test_codim1_faces_match_filtered_hom_sets():
    for n in (1, 2, 3):
        for e in range(1, 6):
            sources = enumerate_trees(n, e - 1)
            for t in enumerate_trees(n, e):
                faces = codim1_faces(t, n)
                assert len(set(faces)) == len(faces), t
                assert all(f.target == t and is_face(f) for f in faces), t
                want = {f for s in sources for f in hom_theta(s, t, n) if is_face(f)}
                assert set(faces) == want, (n, t)


def test_inner_faces_are_shuffles():
    for n in (1, 2, 3):
        for t in all_trees(n, 5):
            m = len(t.children)
            for j in range(1, m):
                merged = [f for f in codim1_faces(t, n) if j not in f.phi.values]
                a, b = (len(c.children) for c in t.children[j - 1 : j + 1])
                assert len(merged) == math.comb(a + b, a), (t, j)
                assert all(f.source.children[j - 1].edges == t.children[j - 1].edges
                           + t.children[j].edges for f in merged)


def test_shuffles():
    assert len(_shuffle_pairs(corolla(1), corolla(1), 1)) == 2
    (pair,) = _shuffle_pairs(LEAF, corolla(2), 1)
    assert pair[0].source == corolla(2)
    assert len(_shuffle_pairs(corolla(2), corolla(1), 1)) == 3
    for a, b in itertools.product(range(4), repeat=2):
        pairs = _shuffle_pairs(corolla(a), corolla(b), 1)
        assert len(set(pairs)) == len(pairs) == math.comb(a + b, a)
        assert all(p.source == q.source and p.source.edges == a + b for p, q in pairs)


def test_shuffles_of_height_2_trees():
    u, v = linear_tree(2), corolla(1)
    pairs = _shuffle_pairs(u, v, 2)
    assert [p.source.render() for p, _ in pairs] == ["[[[]],[]]", "[[],[[]]]"]
    for p, q in pairs:
        assert p.source == q.source and (p.target, q.target) == (u, v)
        assert is_retraction(p) and is_retraction(q)


def test_reedy_factor_examples():
    d = diagonal([SimplicialOperator(3, 2, (0, 1, 1, 2))])
    deg, face = reedy_factor(d)
    assert deg == d and is_identity(face)
    f = diagonal([SimplicialOperator(1, 2, (0, 2))])
    deg, face = reedy_factor(f)
    assert is_identity(deg) and face == f


@pytest.mark.parametrize("n", [2, 3])
def test_reedy_factor_properties(n):
    for s, t in itertools.product(all_trees(n, 3), repeat=2):
        for f in hom_theta(s, t, n):
            deg, face = reedy_factor(f)
            assert compose_theta(face, deg) == f
            assert is_retraction(deg)
            assert is_face(face)
            # classify_theta takes an identity degeneracy to mean f is monic
            assert is_face(f) or not is_identity(deg)


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
    deg = diagonal([SimplicialOperator(3, 2, (0, 1, 1, 2))])
    assert classify_theta(deg) == "degeneracy"
    mixed = diagonal([SimplicialOperator(2, 2, (0, 0, 2))])
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
        pair: [f for f in ops if _preserves_endpoints(f)] for pair, ops in face_cache.items()
    }
    outer_cache = {
        pair: [f for f in ops if _is_outer_face(f)] for pair, ops in face_cache.items()
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


def test_dim_theta():
    # the dimension of a tree-shaped cell is its edge count
    assert linear_tree(4).edges == 4
    assert LEAF.edges == 0
    assert corolla(3).edges == 3

    def wreath_dim(t):
        return len(t.children) + sum(wreath_dim(c) for c in t.children)

    for n in range(1, 5):
        for e in range(9):
            for t in enumerate_trees(n, e):
                assert t.edges == e == wreath_dim(t)


def test_gamma_n_examples():
    t = parse_tree("[[[]],[[],[]]]")
    assert gamma_n(identity_theta(t, 2)) == identity_gamma(3)
    # target of height < n gives the null object
    f = bang(t, 2)
    assert gamma_n(f) == GammaOperator(3, 0, ((), (), ()))
    d = diagonal([SimplicialOperator(3, 2, (0, 1, 1, 2))])
    assert gamma_n(d).subsets == ((1,), (), (2,))


def test_suspend():
    base = identity_theta(LEAF, 1)
    s = suspend(base)
    assert s.source == parse_tree("[[]]") and is_identity(s)
    assert suspend(s).source == linear_tree(2) and is_identity(suspend(s))
    d = diagonal([SimplicialOperator(3, 2, (0, 1, 1, 2))])
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
    assert is_identity(diagonal(ids))
    g = SimplicialOperator(1, 1, (0, 0))
    d = diagonal([f, g])
    assert d.level == 2
    assert d.source == homogeneous_tree([1, 1])
    assert d.phi == f
    assert d.components[0][0].phi == g
    with pytest.raises(ValueError, match="at least one operator"):
        diagonal([])


def test_diagonal_functorial():
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
