"""Finite dimension-truncated Theta_n-sets.

The central object is the reduced Eilenberg-MacLane Theta_n-set
K(pi,n) = gamma_n^*(H pi): a tree evaluates to labelings of its height-n
vertices by elements of pi, operators act through gamma_n and subset
sums.  Also here: the non-degeneracy test, mod-2 cellular chains on the
non-degenerate cells with homology (for K(pi,n) also built by em_chains,
the iterated bar construction over the augmentation ideal of F2[pi] run
on the labelled pruned trees as bar words n deep, with chain_complex's
Theta operators as the oracle), and an independent oracle for the
homology at every level: Serre's Poincare series of K(pi,n) over F2.

The cells of K(pi,n) are listed once, as bar words folded from the
pruned trees (em_words); em_cells spells each as (tree, labels) for the
Theta_n-set, and em_cell_count counts them by leaves.  The words and
their chains (em_chains) need no Theta operator and no tree, so the
module does not load theta: the functions that act with operators
(em_set, is_nondegenerate, chain_complex) import what they use of it
when they are called.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .gamma import FiniteAbelianGroup, h_pi_act
from .trees import LEAF, LevelTree, iter_forests

if TYPE_CHECKING:
    from .theta import ThetaOperator


class FiniteThetaSet:
    """Lazy presheaf on Theta_n: act(f, x) pulls the element x back along
    the operator f, and cells(d) lists the non-degenerate cells over trees
    with d edges as (tree, element) pairs, trees in render order, the
    basis of chain_complex in degree d."""

    __slots__ = ("level", "act", "cells")

    def __init__(self, level: int, act: Callable[[ThetaOperator, object], object],
                 cells: Callable[[int], list]):
        self.level, self.act, self.cells = level, act, cells


def _check_level(n: int) -> None:
    if n < 1:
        raise ValueError("level n must be >= 1")


def em_words(pi: FiniteAbelianGroup, n: int, d: int) -> list:
    """The non-degenerate cells of K(pi,n) over trees with d edges as bar
    words n deep, in the order of em_cells: the empty word in degree 0, and
    in degree d >= 1 the pruned n-trees folded so that a branch's value is
    the list of all its labelled words, a level-0 letter being a
    non-neutral label.  Each list is in lexicographic order of its labels,
    and so is a product of them, and a sub-word is one object per layer."""
    _check_level(n)
    if not d:
        return [()]  # the point
    letters = pi.non_neutral()

    def node(kids: tuple) -> list:
        return [*itertools.product(*kids)] if kids else letters

    return [w for kids in iter_forests(n, d, True, node) for w in itertools.product(*kids)]


def word_cell(n: int, w) -> tuple[LevelTree, tuple]:
    """The cell (tree, labels) that the level-n bar word w spells."""
    if not n:
        return LEAF, (w,)
    cells = [word_cell(n - 1, letter) for letter in w]
    return LevelTree(tuple(t for t, _ in cells)), tuple(x for _, xs in cells for x in xs)


def em_cells(pi: FiniteAbelianGroup, n: int, d: int) -> list:
    """The non-degenerate cells of K(pi,n) over trees with d edges, as
    (tree, labels) pairs, trees in render order: the point in degree 0,
    and in degree d >= 1 the labelings of the pruned n-trees' height-n
    vertices by non-neutral elements, each spelt out of its em_words word."""
    return [word_cell(n, w) for w in em_words(pi, n, d)]


def em_cell_count(pi: FiniteAbelianGroup, n: int, d: int) -> int:
    """len(em_cells(pi, n, d)): (|pi| - 1) ** leaves per pruned n-tree, all
    leaves at height n, the trees folded to leaf counts so none is interned."""
    _check_level(n)
    if not d:
        return 1  # the point
    forests = iter_forests(n, d, True, lambda kids: sum(kids) or 1)
    return sum((pi.order - 1) ** sum(forest) for forest in forests)


def em_set(pi: FiniteAbelianGroup, n: int) -> FiniteThetaSet:
    """The Eilenberg-MacLane Theta_n-set K(pi,n): an element over a tree
    labels its height-n vertices by elements of pi, and an operator acts
    through gamma_n.  Its cells are em_cells, the point and the labelled
    pruned n-trees; em_cell_count counts them."""
    _check_level(n)
    from .theta import gamma_n

    def action(f: ThetaOperator, x):
        return h_pi_act(pi, gamma_n(f), x)

    return FiniteThetaSet(n, action, functools.partial(em_cells, pi, n))


def is_nondegenerate(x_set: FiniteThetaSet, tree: LevelTree, x) -> bool:
    """True iff x is not the image of anything along a codimension-1
    retraction out of the tree."""
    from .theta import degenerate_along

    return not any(degenerate_along(tree, x_set.level, x_set.act, x))


# --- mod-2 cellular chains --------------------------------------------


class BoundarySquareError(AssertionError):
    """Raised when the boundary of a boundary fails to vanish."""


class F2ChainComplex:
    """Basis cells per degree and boundary matrices over F2; the matrix in
    degree d has one bitmask row per degree-d cell, bits indexed by the
    degree-(d-1) basis, and ranks[d] is its rank."""

    __slots__ = ("dim_bound", "basis", "boundary", "ranks")

    def __init__(self, dim_bound: int, basis: list[list],
                 boundary: list[list[int]], ranks: list[int]):
        self.dim_bound, self.basis = dim_bound, basis
        self.boundary, self.ranks = boundary, ranks


def _f2_chains(
    basis: list[list], faces: Callable[[int, object], Iterable]
) -> F2ChainComplex:
    """The F2 chain complex on the given basis layers, where faces(d, cell)
    yields the non-degenerate codimension-1 faces of a degree-d cell (with
    multiplicity; they are summed mod 2).  Checks that the boundary squares
    to zero and ranks each boundary once."""
    # no face lies in the top layer, so it needs no index
    index = [{cell: i for i, cell in enumerate(layer)} for layer in basis[:-1]]
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


def chain_complex(x_set: FiniteThetaSet, dim_bound: int) -> F2ChainComplex:
    """Cellular F2 chains: the boundary of a non-degenerate cell sums its
    pullbacks along all codimension-1 monomorphisms, keeping those that
    are non-degenerate (a degenerate one is zero in the cellular chains);
    checks that the boundary squares to zero."""
    if dim_bound < 0:
        raise ValueError(f"dimension bound {dim_bound} is negative")
    from .theta import codim1_faces

    n = x_set.level
    basis = [x_set.cells(d) for d in range(dim_bound + 1)]

    def faces(d: int, cell: tuple[LevelTree, object]) -> Iterator:
        tree, x = cell
        for face in codim1_faces(tree, n):
            y = x_set.act(face, x)
            if is_nondegenerate(x_set, face.source, y):
                yield face.source, y

    return _f2_chains(basis, faces)


def em_chains(pi: FiniteAbelianGroup, n: int, dim_bound: int) -> F2ChainComplex:
    """The F2 chains of K(pi,n) on its cells as em_words' bar words, with
    the boundary of chain_complex(em_set(pi, n), dim_bound), whose basis is
    word_cell of this one, and no Theta operator: the iterated bar
    construction over the augmentation ideal of F2[pi] (Eilenberg-Mac Lane;
    Mac Lane, Homology, ch. X).  A level-0 letter is a label g, standing
    for x_g = g - e, and a level-k word the tuple of its root branches'
    level-(k-1) words.  There are no end faces: a face lies inside one
    letter, or merges two adjacent letters by the level-(k-1) product,
    x_g x_h = x_{g+h} + x_g + x_h with x_e = 0 at level 0 (zero for Z/2, so
    no level-1 word has a boundary) and shuffles mod 2 above it."""
    if dim_bound < 0:
        raise ValueError(f"dimension bound {dim_bound} is negative")
    letters = pi.non_neutral()
    ideal: dict[tuple, tuple] = {}  # x_g x_h: its odd terms, without x_e = 0
    for g, h in itertools.product(letters, repeat=2):
        terms = (pi.add(g, h), g, h)
        ideal[g, h] = tuple(x for x in set(terms) if x in letters and terms.count(x) % 2)

    def product(k: int, u, v) -> tuple:
        return shuffles(u, v) if k else ideal[u, v]

    def faces(k: int, w) -> Iterator[tuple]:
        if k == 0:  # x_g has no face
            return
        for j, letter in enumerate(w):
            for face in faces(k - 1, letter):
                yield w[:j] + (face,) + w[j + 1 :]
        for j in range(len(w) - 1):
            for merged in product(k - 1, w[j], w[j + 1]):
                yield w[:j] + (merged,) + w[j + 2 :]

    basis = [em_words(pi, n, d) for d in range(dim_bound + 1)]
    complex_ = _f2_chains(basis, lambda d, w: faces(n, w))
    shuffles.cache_clear()
    return complex_


@functools.cache
def shuffles(u: tuple, v: tuple) -> tuple[tuple, ...]:
    """The words of odd multiplicity in the shuffle product of the words u
    and v, from u sh v = u_1 (u' sh v) + v_1 (u sh v') mod 2 (Ree, Ann. of
    Math. 68, 1958): a word reached through both terms cancels, which can
    happen only when u and v start with the same letter."""
    if not (u and v):
        return (u + v,)
    left = [u[:1] + w for w in shuffles(u[1:], v)]
    right = [v[:1] + w for w in shuffles(u, v[1:])]
    if u[0] != v[0]:
        return (*left, *right)
    return tuple(set(left).symmetric_difference(right))


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
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    if degree + 1 > complex_.dim_bound:
        raise ValueError(
            f"degree {degree} needs boundary {degree + 1} beyond the "
            f"truncation {complex_.dim_bound}"
        )
    kernel = len(complex_.basis[degree]) - complex_.ranks[degree]
    return kernel - complex_.ranks[degree + 1]


# --- independent oracle: Serre's Poincare series ---------------------


def oracle_multisimplicial(
    pi: FiniteAbelianGroup, n: int, dim_bound: int
) -> list[int]:
    """Independent F2 Betti numbers of K(pi,n) for degrees 0..dim_bound-1,
    from Serre's Poincare series (Comment. Math. Helv. 27, 1953).
    H*(K(Z/2,n); F2) is polynomial on one generator of degree n+|I| for
    each admissible I (i_j >= 2 i_{j+1}, all i_j >= 1, I empty allowed) of
    excess 2 i_1 - |I| below n.  By Kunneth the series of pi is the
    product over its cyclic factors: one of even order has the series of
    Z/2, one of odd order is F2-acyclic."""
    _check_level(n)
    betti = [int(d == 0) for d in range(dim_bound)]
    # admissible I as (i_1, |I|), grown at the front; the excess never falls
    stack = [(0, 0)]
    while stack:
        first, size = stack.pop()
        degree = n + size
        if degree >= dim_bound or 2 * first - size >= n:
            continue
        stack.extend((i, size + i) for i in range(max(2 * first, 1), dim_bound - degree))
        for m in pi.cyclic_orders:
            if m % 2 == 0:  # multiply by 1 / (1 - t^degree)
                for k in range(degree, dim_bound):
                    betti[k] += betti[k - degree]
    return betti
