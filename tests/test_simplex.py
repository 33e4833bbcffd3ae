import copy
import itertools
import math
import pickle

import pytest

from thetacomb.hashcons import intern
from thetacomb.gamma import compose_gamma
from thetacomb.simplex import (
    SimplicialCompositionError,
    SimplicialOperator,
    SimplicialShapeError,
    compose_delta,
    hom_delta,
    identity_delta,
)

from oracles import classify_delta, factor_epi_mono, segal_gamma


def test_validation():
    # a rejected value leaves no entry in the table, so it is rejected again
    cases = [
        ((1, 1, (1, 0)), "values (1, 0) not weakly increasing in 0..1"),
        ((1, 1, (0, 2)), "values (0, 2) not weakly increasing in 0..1"),
        ((2, 1, (0, 1)), "expected 3 values, got 2"),
        ((-1, 3, ()), "endpoints [-1] -> [3] must be >= 0"),
        ((1, -1, (0, 0)), "endpoints [1] -> [-1] must be >= 0"),
    ]
    before = intern.cache_info().currsize
    for args, message in cases:
        for _ in range(2):
            with pytest.raises(SimplicialShapeError) as error:
                SimplicialOperator(*args)
            assert str(error.value) == message and intern.cache_info().currsize == before
    for build in (lambda: hom_delta(-1, 2), lambda: identity_delta(-1)):
        with pytest.raises(SimplicialShapeError):
            build()
        assert intern.cache_info().currsize == before


def test_operators_are_hash_consed():
    f = SimplicialOperator(2, 3, (0, 1, 3))
    assert SimplicialOperator(2, 3, tuple([0, 1, 3])) is f
    assert compose_delta(identity_delta(3), f) is f
    assert type(f).__eq__ is object.__eq__ and type(f).__hash__ is object.__hash__
    for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied is f
    with pytest.raises(AttributeError):
        f.values = (0, 1, 2)
    with pytest.raises(AttributeError):
        del f.source
    assert not hasattr(f, "__dict__") and f.values == (0, 1, 3)
    assert repr(f) == "SimplicialOperator(source=2, target=3, values=(0, 1, 3))"


def test_compose():
    i = identity_delta(2)
    assert compose_delta(i, i) == i
    g = SimplicialOperator(3, 2, (0, 1, 1, 2))
    f = SimplicialOperator(1, 3, (0, 2))
    assert compose_delta(g, f).values == (0, 1)
    # composing with a point picks out a value
    for j in range(3):
        point = SimplicialOperator(0, 3, (j,))
        assert compose_delta(g, point).values == (g.values[j],)
    with pytest.raises(SimplicialCompositionError):
        compose_delta(f, g)


def test_compose_memo_is_transparent():
    # the memo hands back the composite the function builds; a refused pair
    # is refused again and leaves no entry
    homs = {(a, b): hom_delta(a, b) for a in range(4) for b in range(4)}
    for a, b, c in itertools.product(range(4), repeat=3):
        for f, g in itertools.product(homs[a, b], homs[b, c]):
            assert compose_delta(g, f) is compose_delta.__wrapped__(g, f)
    before = compose_delta.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SimplicialCompositionError):
            compose_delta(identity_delta(2), identity_delta(1))
        assert compose_delta.cache_info().currsize == before


def test_factor_epi_mono_example():
    f = SimplicialOperator(2, 2, (0, 0, 2))
    epi, mono = factor_epi_mono(f)
    assert epi.values == (0, 0, 1) and mono.values == (0, 2)
    assert compose_delta(mono, epi) == f


def test_factor_epi_mono_edge_cases():
    f = SimplicialOperator(1, 3, (1, 3))
    assert factor_epi_mono(f) == (identity_delta(1), f)
    g = SimplicialOperator(3, 1, (0, 0, 1, 1))
    assert factor_epi_mono(g) == (g, identity_delta(1))


def test_factor_epi_mono_unique_by_brute_force():
    for m, n in itertools.product(range(5), repeat=2):
        for f in hom_delta(m, n):
            found = []
            for k in range(min(m, n) + 1):
                for epi in hom_delta(m, k):
                    if not epi.is_surjective:
                        continue
                    for mono in hom_delta(k, n):
                        if mono.is_injective and compose_delta(mono, epi) == f:
                            found.append((epi, mono))
            assert found == [factor_epi_mono(f)]


def test_classify():
    c = classify_delta(SimplicialOperator(1, 2, (0, 2)))
    assert (c.kind, c.inner, c.outer) == ("face", True, False)
    c = classify_delta(SimplicialOperator(1, 2, (1, 2)))
    assert (c.kind, c.inner, c.outer) == ("face", False, True)
    assert classify_delta(SimplicialOperator(2, 1, (0, 0, 1))).kind == "degeneracy"
    assert classify_delta(identity_delta(3)).kind == "iso"
    assert classify_delta(SimplicialOperator(2, 2, (0, 0, 2))).kind == "mixed"


def test_hom_counts():
    assert len(hom_delta(1, 1)) == 3
    assert len(hom_delta(0, 5)) == 6
    assert len(hom_delta(2, 1)) == 4
    for m, n in itertools.product(range(7), repeat=2):
        assert len(hom_delta(m, n)) == math.comb(m + n + 1, m + 1)


def test_hom_deterministic_lex_order():
    values = [f.values for f in hom_delta(2, 2)]
    assert values == sorted(values)


def test_faces_factor_inner_after_outer():
    # every face is an outer face after an inner face, in exactly one way
    for m, n in itertools.product(range(5), repeat=2):
        for f in hom_delta(m, n):
            if not f.is_injective:
                continue
            found = 0
            for k in range(n + 1):
                for inner in hom_delta(m, k):
                    ci = classify_delta(inner)
                    if not (inner.is_injective and ci.inner):
                        continue
                    for outer in hom_delta(k, n):
                        co = classify_delta(outer)
                        if not (outer.is_injective and co.outer):
                            continue
                        if compose_delta(outer, inner) == f:
                            found += 1
            assert found == 1, f


def test_segal_gamma_examples():
    f = SimplicialOperator(3, 2, (0, 1, 1, 2))
    assert segal_gamma(f).subsets == ((1,), (), (2,))
    assert segal_gamma(identity_delta(3)).subsets == ((1,), (2,), (3,))
    assert segal_gamma(SimplicialOperator(1, 2, (0, 2))).subsets == ((1, 2),)


def test_segal_gamma_functorial():
    for m, n, k in itertools.product(range(4), repeat=3):
        for f in hom_delta(m, n):
            for g in hom_delta(n, k):
                assert segal_gamma(compose_delta(g, f)) == compose_gamma(
                    segal_gamma(g), segal_gamma(f)
                )
