import copy
import itertools
import pickle
import random

import pytest

from thetacomb.theta import gamma_n, hom_theta
from thetacomb.hashcons import intern
from thetacomb.trees import enumerate_trees
from thetacomb.verify import sample_trees
from thetacomb.gamma import (
    GammaCompositionError,
    GammaOperator,
    GammaShapeError,
    compose_gamma,
    h_pi_act,
    hom_gamma,
    identity_gamma,
    parse_group,
)

from oracles import vertices_at_height

Z2 = parse_group("z2")
Z3 = parse_group("z3")
Z2Z2 = parse_group("z2xz2")


def test_validation():
    # a rejected value leaves no entry in the table, so it is rejected again
    cases = [
        ((2, 2, ((1,), (1,))), "element 1 appears twice"),
        ((1, 2, ((3,),)), "element 3 outside 1..2"),
        ((1, 3, ((2, 1),)), "subset (2, 1) not sorted"),
        ((2, 3, ((1,),)), "expected 2 subsets, got 1"),
        ((0, -3, ()), "endpoints 0 -> -3 must be >= 0"),
        ((-1, 2, ()), "endpoints -1 -> 2 must be >= 0"),
    ]
    before = intern.cache_info().currsize
    for args, message in cases:
        for _ in range(2):
            with pytest.raises(GammaShapeError) as error:
                GammaOperator(*args)
            assert str(error.value) == message and intern.cache_info().currsize == before


def test_operators_are_hash_consed():
    f = GammaOperator(2, 3, ((1,), (2, 3)))
    assert GammaOperator(2, 3, tuple([(1,), tuple([2, 3])])) is f
    assert compose_gamma(f, identity_gamma(2)) is f
    assert type(f).__eq__ is object.__eq__ and type(f).__hash__ is object.__hash__
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied is f
    with pytest.raises(AttributeError):
        f.subsets = ()
    with pytest.raises(AttributeError):
        del f.target
    assert not hasattr(f, "__dict__") and f.subsets == ((1,), (2, 3))
    assert repr(f) == "GammaOperator(source=2, target=3, subsets=((1,), (2, 3)))"


def test_compose_example():
    f = GammaOperator(2, 2, ((2,), (1,)))
    g = GammaOperator(2, 3, ((1,), (2, 3)))
    assert compose_gamma(g, f).subsets == ((2, 3), (1,))
    assert compose_gamma(identity_gamma(3), g) == g
    assert compose_gamma(g, identity_gamma(2)) == g
    with pytest.raises(GammaCompositionError):
        compose_gamma(f, g)


def test_compose_memo_is_transparent():
    # every composable pair of gamma_n images of the exhaustive n = 2 sample:
    # the memo hands back the composite the function builds
    trees = sample_trees(2, 3)
    images = {
        gamma_n(f) for s in trees for t in trees for f in hom_theta(s, t, 2)
    }
    by_source = {}
    for g in images:
        by_source.setdefault(g.source, []).append(g)
    pairs = 0
    for f in images:
        for g in by_source.get(f.target, ()):
            assert compose_gamma(g, f) is compose_gamma.__wrapped__(g, f)
            pairs += 1
    # the distinct composable pairs of gamma_n images in this exhaustive sample
    assert pairs == 207
    # a refused pair is refused again and leaves no entry
    f, g = GammaOperator(1, 2, ((1, 2),)), GammaOperator(1, 3, ((2,),))
    before = compose_gamma.cache_info().currsize
    for _ in range(2):
        with pytest.raises(GammaCompositionError):
            compose_gamma(g, f)
        assert compose_gamma.cache_info().currsize == before


def test_null_object():
    zero_in = GammaOperator(0, 2, ())
    f = GammaOperator(2, 3, ((1,), (3,)))
    assert compose_gamma(f, zero_in) == GammaOperator(0, 3, ())


def test_hom_gamma_counts():
    # each target element lands in at most one subset: (m+1)^n operators
    for m, n in itertools.product(range(4), repeat=2):
        ops = hom_gamma(m, n)
        assert len(ops) == (m + 1) ** n
        assert len(set(ops)) == len(ops)


def test_associativity_exhaustive_endpoints_2():
    sizes = range(3)
    for k, m, n, l in itertools.product(sizes, repeat=4):
        for f in hom_gamma(k, m):
            for g in hom_gamma(m, n):
                gf = compose_gamma(g, f)
                for h in hom_gamma(n, l):
                    assert compose_gamma(compose_gamma(h, g), f) == compose_gamma(h, gf)


def test_associativity_sampled_endpoints_3():
    rng = random.Random(7)
    homs = {
        (a, b): hom_gamma(a, b)
        for a, b in itertools.product(range(4), repeat=2)
    }
    for _ in range(3000):
        k, m, n, l = (rng.randrange(4) for _ in range(4))
        f = rng.choice(homs[(k, m)])
        g = rng.choice(homs[(m, n)])
        h = rng.choice(homs[(n, l)])
        assert compose_gamma(compose_gamma(h, g), f) == compose_gamma(
            h, compose_gamma(g, f)
        )


def test_identity_laws_endpoints_3():
    for m, n in itertools.product(range(4), repeat=2):
        for f in hom_gamma(m, n):
            assert compose_gamma(f, identity_gamma(m)) == f
            assert compose_gamma(identity_gamma(n), f) == f


def _vertex_images(f, path):
    """The definition of gamma_n on one height-n vertex: the path (i, *rest)
    goes to (k, *p) for k in f's block i and p in the image of rest under
    the operator of row i at k."""
    i, rest = path[0], path[1:]
    block = range(f.phi.values[i - 1] + 1, f.phi.values[i] + 1)
    if f.level == 1:
        return [(k,) for k in block]
    return [
        (k, *p) for k, c in zip(block, f.components[i - 1]) for p in _vertex_images(c, rest)
    ]


def reference_gamma_n(f):
    """gamma_n read off vertex paths, indexed by position in
    vertices_at_height."""
    source = vertices_at_height(f.source, f.level)
    target = vertices_at_height(f.target, f.level)
    position = {p: j for j, p in enumerate(target, 1)}
    subsets = tuple(
        tuple(sorted(position[p] for p in _vertex_images(f, v))) for v in source
    )
    return GammaOperator(len(source), len(target), subsets)


# 4 edges is the least at n = 2 where one row holds two operators that
# both land on height-n vertices, so that the second one's are shifted
@pytest.mark.parametrize("n, max_edges, operators", [(2, 4, 5895), (3, 4, 9325)])
def test_gamma_n_matches_its_definition(n, max_edges, operators):
    trees = [t for e in range(max_edges + 1) for t in enumerate_trees(n, e)]
    homs = [hom_theta(s, t, n) for s, t in itertools.product(trees, repeat=2)]
    assert sum(map(len, homs)) == operators
    for f in itertools.chain.from_iterable(homs):
        assert gamma_n(f) is reference_gamma_n(f)


def test_groups():
    assert Z2.order == 2 and Z3.order == 3 and Z2Z2.order == 4
    z24 = parse_group("z2xz4")
    assert z24.cyclic_orders == (2, 4) and z24.order == 8
    assert z24.add((1, 3), (1, 2)) == (0, 1)
    assert len(z24.elements()) == 8 and len(z24.non_neutral()) == 7
    with pytest.raises(ValueError):
        parse_group("q8")
    # only ASCII digits: an Arabic-Indic 2 and a superscript 2 are not orders
    for spec in ("z\u0662", "z\u00b2"):
        with pytest.raises(ValueError, match="bad group spec"):
            parse_group(spec)


def test_h_pi_act_examples():
    a, b = (1,), (0,)
    u = GammaOperator(3, 2, ((1,), (), (2,)))
    assert h_pi_act(Z2, u, (a, b)) == (a, (0,), b)
    assert h_pi_act(Z2, identity_gamma(2), (a, b)) == (a, b)
    add = GammaOperator(1, 2, ((1, 2),))
    assert h_pi_act(Z3, add, ((1,), (2,))) == ((0,),)
    with pytest.raises(GammaShapeError):
        h_pi_act(Z2, u, (a,))


def test_h_pi_act_memo_is_transparent():
    for pi in (Z2, Z3, Z2Z2):
        for m, n in itertools.product(range(3), repeat=2):
            for u, x in itertools.product(hom_gamma(m, n), itertools.product(pi.elements(), repeat=n)):
                want = h_pi_act.__wrapped__(pi, u, x)
                assert h_pi_act(pi, u, x) == want and h_pi_act(pi, u, x) is h_pi_act(pi, u, x)


def test_refused_actions_leave_no_memo_entry():
    u = GammaOperator(3, 2, ((1,), (), (2,)))
    before = h_pi_act.cache_info().currsize
    for x in [((1,),), ((1,),), ((0,), (1,), (0,))]:
        with pytest.raises(GammaShapeError, match="element has length"):
            h_pi_act(Z2, u, x)
        assert h_pi_act.cache_info().currsize == before


def test_h_pi_act_functorial():
    for pi in (Z2, Z3, Z2Z2):
        elements = pi.elements()
        for k, m, n in itertools.product(range(3), repeat=3):
            for f in hom_gamma(k, m):
                for g in hom_gamma(m, n):
                    for x in itertools.product(elements, repeat=n):
                        assert h_pi_act(pi, f, h_pi_act(pi, g, x)) == h_pi_act(
                            pi, compose_gamma(g, f), x
                        )
