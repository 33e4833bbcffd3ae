"""Every hash-consed value lives in the one table, hashcons.intern."""

import pytest

from thetacomb.gamma import FiniteAbelianGroup, GammaOperator
from thetacomb.hashcons import HashConsed, intern
from thetacomb.simplex import SimplicialOperator
from thetacomb.theta import ThetaOperator
from thetacomb.trees import LEAF, LevelTree


def test_every_value_is_interned_once_and_a_refused_one_never():
    # a class with a table of its own would grow intern by 0 on a new value
    wide = LevelTree((LEAF,) * 1013)
    collapse = SimplicialOperator(1013, 0, (0,) * 1014)
    new = {
        LevelTree: lambda: LevelTree((LEAF,) * 1009),
        SimplicialOperator: lambda: SimplicialOperator(0, 1009, (1009,)),
        GammaOperator: lambda: GammaOperator(1, 1009, ((1009,),)),
        ThetaOperator: lambda: ThetaOperator(7, wide, LEAF, collapse, ((),) * 1013),
        FiniteAbelianGroup: lambda: FiniteAbelianGroup((1009, 1013)),
    }
    refused = {
        LevelTree: lambda: LevelTree((1,)),
        SimplicialOperator: lambda: SimplicialOperator(0, 1009, (1010,)),
        GammaOperator: lambda: GammaOperator(1, 1009, ((1010,),)),
        ThetaOperator: lambda: ThetaOperator(-1, wide, LEAF, collapse, ((),) * 1013),
        FiniteAbelianGroup: lambda: FiniteAbelianGroup((0, 1009)),
    }
    package = {c for c in HashConsed.__subclasses__() if c.__module__.startswith("thetacomb.")}
    assert package == set(new) == set(refused)
    for cls in package:
        before = intern.cache_info().currsize
        value = new[cls]()
        assert type(value) is cls and intern.cache_info().currsize == before + 1, cls
        assert new[cls]() is value and intern.cache_info().currsize == before + 1, cls
        with pytest.raises((AttributeError, ValueError)):
            refused[cls]()
        assert intern.cache_info().currsize == before + 1, cls
