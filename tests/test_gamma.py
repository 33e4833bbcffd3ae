import copy
import itertools
import pickle
import random

import pytest

from thetacomb.trees import intern
from thetacomb.gamma import (
    FiniteAbelianGroup,
    GammaCompositionError,
    GammaOperator,
    GammaShapeError,
    assemble,
    compose_gamma,
    h_pi_act,
    hom_gamma,
    identity_gamma,
    parse_group,
)

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


def test_assemble_examples():
    u = GammaOperator(1, 2, ((1, 2),))
    assert assemble(identity_gamma(1), {(1, 1): u}, [1], [2]) == u
    outer = GammaOperator(1, 2, ((1, 2),))
    one = identity_gamma(1)
    assert assemble(outer, {(1, 1): one, (1, 2): one}, [1], [1, 1]) == GammaOperator(
        1, 2, ((1, 2),)
    )
    swap = GammaOperator(2, 2, ((2,), (1,)))
    assert assemble(swap, {(1, 2): one, (2, 1): one}, [1, 1], [1, 1]) == swap


def test_assemble_shape_errors():
    with pytest.raises(GammaShapeError):
        assemble(identity_gamma(1), {(1, 1): identity_gamma(2)}, [1], [1])
    with pytest.raises(GammaShapeError):
        assemble(identity_gamma(2), {}, [1], [1, 1])


def test_assemble_functorial_spot_check():
    # assembling composites = composing assemblies, outer shape 2 -> 2 -> 2
    rng = random.Random(11)
    sizes = [2, 1]
    for _ in range(50):
        o1 = rng.choice(hom_gamma(2, 2))
        o2 = rng.choice(hom_gamma(2, 2))
        c1 = {
            (i, j): rng.choice(hom_gamma(sizes[i - 1], sizes[j - 1]))
            for i in (1, 2)
            for j in o1(i)
        }
        c2 = {
            (i, j): rng.choice(hom_gamma(sizes[i - 1], sizes[j - 1]))
            for i in (1, 2)
            for j in o2(i)
        }
        a1 = assemble(o1, c1, sizes, sizes)
        a2 = assemble(o2, c2, sizes, sizes)
        outer = compose_gamma(o2, o1)
        comps = {
            (i, k): compose_gamma(c2[(j, k)], c1[(i, j)])
            for i in (1, 2)
            for j in o1(i)
            for k in o2(j)
        }
        assert assemble(outer, comps, sizes, sizes) == compose_gamma(a2, a1)


def test_groups():
    assert Z2.order == 2 and Z3.order == 3 and Z2Z2.order == 4
    z24 = parse_group("z2xz4")
    assert z24.cyclic_orders == (2, 4) and z24.order == 8
    assert z24.spec_string() == "z2xz4"
    assert z24.add((1, 3), (1, 2)) == (0, 1)
    assert len(z24.elements()) == 8 and len(z24.non_neutral()) == 7
    with pytest.raises(ValueError):
        parse_group("q8")


def test_h_pi_act_examples():
    a, b = (1,), (0,)
    u = GammaOperator(3, 2, ((1,), (), (2,)))
    assert h_pi_act(Z2, u, (a, b)) == (a, (0,), b)
    assert h_pi_act(Z2, identity_gamma(2), (a, b)) == (a, b)
    add = GammaOperator(1, 2, ((1, 2),))
    assert h_pi_act(Z3, add, ((1,), (2,))) == ((0,),)
    with pytest.raises(GammaShapeError):
        h_pi_act(Z2, u, (a,))


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


def test_json():
    import json

    data = json.loads(GammaOperator(2, 3, ((1,), (2, 3))).to_json())
    assert data == {"src": 2, "tgt": 3, "subsets": [[1], [2, 3]]}
