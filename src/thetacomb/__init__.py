"""Exact combinatorics of iterated wreath products of the simplex
category, Segal's Gamma, Eilenberg-MacLane cell models and their F2
homology."""

from .counting import (
    RationalGF,
    euler_char,
    fib_numbers,
    gf_coefficients,
    gf_em,
    gf_fib,
)
from .gamma import (
    FiniteAbelianGroup,
    GammaOperator,
    compose_gamma,
    h_pi_act,
    hom_gamma,
    identity_gamma,
    parse_group,
)
from .presheaf import (
    F2ChainComplex,
    FiniteThetaSet,
    cell_census,
    chain_complex,
    em_set,
    homology_f2,
    is_nondegenerate,
    oracle_multisimplicial,
    product_census,
    product_set,
    reduce_element,
)
from .simplex import (
    DeltaClass,
    SimplicialOperator,
    classify_delta,
    compose_delta,
    factor_epi_mono,
    hom_delta,
    identity_delta,
    segal_gamma,
)
from .theta import (
    ThetaOperator,
    classify_theta,
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
from .trees import (
    LevelTree,
    NGraph,
    corolla,
    enumerate_pruned,
    enumerate_trees,
    linear_tree,
    parse_tree,
    star,
    vertices_at_height,
)

__all__ = [name for name in dir() if not name.startswith("_")]
