"""Finite dimension-truncated Theta_n-sets.

The central object is the reduced Eilenberg-MacLane Theta_n-set
K(pi,n) = gamma_n^*(H pi): a tree evaluates to labelings of its height-n
vertices by elements of pi, operators act through gamma_n and subset
sums.  Also here: products of representables, reduction to the
non-degenerate core, cell censuses, mod-2 cellular chains with homology,
and an independent (multi)simplicial oracle for the homology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .gamma import FiniteAbelianGroup, h_pi_act
from .theta import (
    ThetaOperator,
    codim1_retractions,
    compose_theta,
    gamma_n,
    hom_theta,
    identity_theta,
    is_face,
)
from .trees import LEAF, LevelTree, enumerate_trees, is_pruned, vertices_at_height


@dataclass
class FiniteThetaSet:
    """Lazy presheaf on Theta_n: eval lists the elements over a tree and
    act(f, x) pulls x back along the operator f."""

    level: int
    eval: Callable[[LevelTree], list]
    act: Callable[[ThetaOperator, object], object]
    # optional fast paths for non-degenerate cells (used by K(pi,n))
    nondeg_count: Optional[Callable[[LevelTree], int]] = None
    nondeg_elements: Optional[Callable[[LevelTree], list]] = None


def em_set(pi: FiniteAbelianGroup, n: int) -> FiniteThetaSet:
    """The Eilenberg-MacLane Theta_n-set K(pi,n)."""
    if n < 1:
        raise ValueError("level n must be >= 1")

    def eval_tree(tree: LevelTree) -> list:
        k = len(vertices_at_height(tree, n))
        return list(itertools.product(pi.elements(), repeat=k))

    def action(f: ThetaOperator, x):
        return h_pi_act(pi, gamma_n(f), x)

    def nondeg_count(tree: LevelTree) -> int:
        if tree == LEAF:
            return 1
        if not is_pruned(tree, n):
            return 0
        return (pi.order - 1) ** len(vertices_at_height(tree, n))

    def nondeg_elements(tree: LevelTree) -> list:
        if tree == LEAF:
            return [()]
        if not is_pruned(tree, n):
            return []
        k = len(vertices_at_height(tree, n))
        return list(itertools.product(pi.non_neutral(), repeat=k))

    return FiniteThetaSet(n, eval_tree, action, nondeg_count, nondeg_elements)


def product_set(s: LevelTree, t: LevelTree, n: int) -> FiniteThetaSet:
    """The product of representables Theta_n[S] x Theta_n[T]: elements over
    U are pairs of operators U -> S, U -> T acting by precomposition."""

    def eval_tree(tree: LevelTree) -> list:
        return list(
            itertools.product(hom_theta(tree, s, n), hom_theta(tree, t, n))
        )

    def action(f: ThetaOperator, x):
        a, b = x
        return (compose_theta(a, f), compose_theta(b, f))

    return FiniteThetaSet(n, eval_tree, action)


def is_nondegenerate(x_set: FiniteThetaSet, tree: LevelTree, x) -> bool:
    """True iff x is not the image of anything along a codimension-1
    retraction out of the tree."""
    for r, s in codim1_retractions(tree, x_set.level):
        candidate = x_set.act(s, x)
        if x_set.act(r, candidate) == x:
            return False
    return True


def reduce_element(
    x_set: FiniteThetaSet, tree: LevelTree, x
) -> tuple[LevelTree, ThetaOperator, object]:
    """The unique non-degenerate core: a tree U, a degeneracy d: S -> U and
    a non-degenerate y over U with act(d, y) = x."""
    degeneracy = identity_theta(tree, x_set.level)
    y = x
    progress = True
    while progress:
        progress = False
        for r, s in codim1_retractions(tree, x_set.level):
            candidate = x_set.act(s, y)
            if x_set.act(r, candidate) == y:
                degeneracy = compose_theta(r, degeneracy)
                tree = r.target
                y = candidate
                progress = True
                break
    return tree, degeneracy, y


def cell_census(x_set: FiniteThetaSet, dim_bound: int) -> dict[int, int]:
    """Count of non-degenerate cells per dimension 0..dim_bound."""
    census = {}
    for d in range(dim_bound + 1):
        total = 0
        for tree in enumerate_trees(x_set.level, d):
            if x_set.nondeg_count is not None:
                total += x_set.nondeg_count(tree)
            else:
                total += sum(
                    1 for x in x_set.eval(tree)
                    if is_nondegenerate(x_set, tree, x)
                )
        census[d] = total
    return census


def product_census(
    s: LevelTree, t: LevelTree, n: int, dim_bound: int
) -> dict[int, int]:
    return cell_census(product_set(s, t, n), dim_bound)


# --- mod-2 cellular chains --------------------------------------------


class BoundarySquareError(AssertionError):
    """Raised when the boundary of a boundary fails to vanish."""


@dataclass
class F2ChainComplex:
    """Basis cells per degree and boundary matrices over F2; the matrix in
    degree d has one bitmask row per degree-d cell, bits indexed by the
    degree-(d-1) basis, and ranks[d] is its rank."""

    dim_bound: int
    basis: list[list]
    boundary: list[list[int]]
    ranks: list[int]


def _f2_chains(
    basis: list[list], faces: Callable[[int, object], Iterable]
) -> F2ChainComplex:
    """The F2 chain complex on the given basis layers, where faces(d, cell)
    yields the non-degenerate codimension-1 faces of a degree-d cell (with
    multiplicity; they are summed mod 2).  Checks that the boundary squares
    to zero and ranks each boundary once."""
    index = [{cell: i for i, cell in enumerate(layer)} for layer in basis]
    boundary: list[list[int]] = [[0] * len(basis[0])]  # degree 0 maps to zero
    for d in range(1, len(basis)):
        lower = index[d - 1]
        rows = []
        for cell in basis[d]:
            row = 0
            for face in faces(d, cell):
                row ^= 1 << lower[face]
            rows.append(row)
        boundary.append(rows)
    for d in range(2, len(basis)):
        for row, cell in zip(boundary[d], basis[d]):
            acc = 0
            while row:
                low = row & -row
                acc ^= boundary[d - 1][low.bit_length() - 1]
                row ^= low
            if acc:
                raise BoundarySquareError(f"boundary squared nonzero on {cell}")
    ranks = [gf2_rank(rows) for rows in boundary]
    return F2ChainComplex(len(basis) - 1, basis, boundary, ranks)


@lru_cache(maxsize=None)
def _faces_between(
    source: LevelTree, target: LevelTree, n: int
) -> tuple[ThetaOperator, ...]:
    return tuple(f for f in hom_theta(source, target, n) if is_face(f))


def chain_complex(x_set: FiniteThetaSet, dim_bound: int) -> F2ChainComplex:
    """Cellular F2 chains: the boundary of a non-degenerate cell sums its
    reductions along all codimension-1 monomorphisms, keeping only the
    summands that stay non-degenerate; checks that the boundary squares
    to zero."""
    n = x_set.level
    trees = [enumerate_trees(n, d) for d in range(dim_bound + 1)]
    basis: list[list[tuple[LevelTree, object]]] = []
    for layer_trees in trees:
        layer = []
        for tree in layer_trees:
            if x_set.nondeg_elements is not None:
                layer.extend((tree, x) for x in x_set.nondeg_elements(tree))
            else:
                layer.extend(
                    (tree, x)
                    for x in x_set.eval(tree)
                    if is_nondegenerate(x_set, tree, x)
                )
        basis.append(layer)

    def faces(d: int, cell: tuple[LevelTree, object]) -> Iterator:
        tree, x = cell
        for small in trees[d - 1]:
            for face in _faces_between(small, tree, n):
                core_tree, _, y = reduce_element(x_set, small, x_set.act(face, x))
                if core_tree.edges == d - 1:
                    yield core_tree, y

    return _f2_chains(basis, faces)


def gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> the pivot row with it
    for row in rows:
        while row:
            pivot = pivots.get(row.bit_length())
            if pivot is None:
                pivots[row.bit_length()] = row
                break
            row ^= pivot
    return len(pivots)


def homology_f2(complex_: F2ChainComplex, degree: int) -> int:
    """F2 Betti number: dim ker boundary_d minus rank boundary_{d+1}."""
    if degree + 1 > complex_.dim_bound:
        raise ValueError(
            f"degree {degree} needs boundary {degree + 1} beyond the "
            f"truncation {complex_.dim_bound}"
        )
    kernel = len(complex_.basis[degree]) - complex_.ranks[degree]
    return kernel - complex_.ranks[degree + 1]


# --- independent (multi)simplicial oracle ------------------------------


def _bar_faces(x: tuple, add: Callable) -> Iterator[tuple]:
    """The faces of a k-simplex [x_1|...|x_k] of a nerve: drop x_1, merge
    x_i and x_{i+1} by add, drop x_k."""
    yield x[1:]
    for i in range(1, len(x)):
        yield x[: i - 1] + (add(x[i - 1], x[i]),) + x[i + 1 :]
    yield x[:-1]


def _nerve_chains(pi: FiniteAbelianGroup, dim_bound: int) -> F2ChainComplex:
    """Normalized F2 chains of the classical nerve of pi, built directly
    from the group multiplication."""
    neutral = pi.neutral

    def faces(k: int, x: tuple) -> Iterator[tuple]:
        return (face for face in _bar_faces(x, pi.add) if neutral not in face)

    basis = [
        list(itertools.product(pi.non_neutral(), repeat=k))
        for k in range(dim_bound + 1)
    ]
    return _f2_chains(basis, faces)


def _double_nerve_chains(
    pi: FiniteAbelianGroup, dim_bound: int
) -> F2ChainComplex:
    """The total complex of the doubly-normalized F2 chains of the double
    nerve of pi (the bisimplicial set underlying K(pi,2) pulled back along
    the bi-simplicial diagonal).

    Cells in bidegree (a,b) are a x b matrices over pi; the doubly
    non-degenerate ones are those without an all-neutral row or column,
    and the 0 x 0 one.  Horizontal faces drop or merge rows, vertical
    faces columns.
    """
    neutral = pi.neutral

    def nondeg(a: int, b: int, matrix: tuple) -> bool:
        if not (a and b):
            return a == b == 0
        return (neutral,) * b not in matrix and (neutral,) * a not in zip(*matrix)

    def add_rows(u: tuple, v: tuple) -> tuple:
        return tuple(map(pi.add, u, v))

    def faces(d: int, cell: tuple) -> Iterator[tuple]:
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
                list(itertools.product(pi.elements(), repeat=d - a)), repeat=a
            )
            if nondeg(a, d - a, matrix)
        ]
        for d in range(dim_bound + 1)
    ]
    return _f2_chains(basis, faces)


def oracle_multisimplicial(
    pi: FiniteAbelianGroup, n: int, dim_bound: int
) -> list[int]:
    """Independent F2 Betti numbers for degrees 0..dim_bound-1: the nerve
    of pi for n=1, the double nerve (via its total complex) for n=2."""
    if n == 1:
        complex_ = _nerve_chains(pi, dim_bound)
    elif n == 2:
        complex_ = _double_nerve_chains(pi, dim_bound)
    else:
        raise ValueError(f"oracle unsupported for level {n}")
    return [homology_f2(complex_, d) for d in range(dim_bound)]
