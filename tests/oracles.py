"""Oracles and fixtures shared by the tests, which no command runs: the
bracket-string parser, the pruned-tree listing and small tree families,
Batanin's star construction, the identity test and the taxonomy of Delta
and Theta_n operators, Segal's gamma, the unique operator onto the point
tree, the level embedding and the diagonal Delta^n -> Theta_n,
Theta_n-sets whose cells are listed generically (such as products of
representables), and the Fibonacci generating function."""

from __future__ import annotations

import itertools
from typing import Callable

from thetacomb.gamma import FiniteAbelianGroup, GammaOperator
from thetacomb.hashcons import HashConsed, intern
from thetacomb.presheaf import FiniteThetaSet, is_nondegenerate
from thetacomb.simplex import SimplicialOperator, identity_delta
from thetacomb.theta import (
    ThetaOperator, compose_theta, hom_theta, identity_theta, reedy_factor
)
from thetacomb.trees import LEAF, LevelTree, count_at_height, enumerate_trees, iter_forests


class TreeParseError(ValueError):
    """Malformed bracket string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_tree(text: str) -> LevelTree:
    """Parse the bracket encoding, e.g. "[[],[[]]]".  Whitespace is ignored."""
    stripped = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    pos = 0

    def parse_one() -> LevelTree:
        nonlocal pos
        if pos >= len(stripped) or stripped[pos][1] != "[":
            where = stripped[pos][0] if pos < len(stripped) else len(text)
            raise TreeParseError("expected '['", where)
        pos += 1
        children = []
        while True:
            if pos >= len(stripped):
                raise TreeParseError("unclosed '['", len(text))
            ch = stripped[pos][1]
            if ch == "]":
                pos += 1
                return LevelTree(tuple(children))
            if children:
                if ch != ",":
                    raise TreeParseError("expected ',' or ']'", stripped[pos][0])
                pos += 1
            children.append(parse_one())

    tree = parse_one()
    if pos != len(stripped):
        raise TreeParseError("trailing input", stripped[pos][0])
    return tree


def enumerate_pruned(n: int, e: int) -> list[LevelTree]:
    """All pruned n-trees (every leaf at height exactly n) with e edges, in
    lexicographic order of the bracket encoding."""
    return list(map(LevelTree, iter_forests(n, e, pruned=True)))


def linear_tree(n: int) -> LevelTree:
    """The linear tree with one vertex at each height 0..n."""
    if n < 0:
        raise ValueError(f"linear tree height {n} is negative")
    t = LEAF
    for _ in range(n):
        t = LevelTree((t,))
    return t


def corolla(m: int) -> LevelTree:
    """Height <= 1 tree with m leaves attached to the root."""
    if m < 0:
        raise ValueError(f"corolla leaf count {m} is negative")
    return LevelTree((LEAF,) * m)


def vertices_at_height(tree: LevelTree, h: int) -> list[tuple[int, ...]]:
    """Root-paths (1-based child indices) of the vertices at exact height h,
    in left-to-right planar order."""
    if h == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for i, child in enumerate(tree.children, start=1):
        out.extend((i,) + p for p in vertices_at_height(child, h - 1))
    return out


# --- star construction -------------------------------------------------

CellId = tuple[int, ...]


class NGraph:
    """Graded sets of cells with source/target maps satisfying the globular
    identities.  Cell ids are root-paths ending in a sector index."""

    __slots__ = ("cells", "source", "target")

    def __init__(self, cells: tuple[tuple[CellId, ...], ...],
                 source: dict[CellId, CellId], target: dict[CellId, CellId]):
        self.cells, self.source, self.target = cells, source, target

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1


def star(tree: LevelTree, n: int) -> NGraph:
    """Batanin's star construction: the n-graph T_* generated by the tree.

    A vertex at height k with m children contributes its m+1 sectors as
    k-cells; the sectors of a child vertex are bounded by the two sectors
    of the parent adjacent to the connecting edge.
    """
    if tree.height > n:
        raise ValueError(f"tree height {tree.height} exceeds bound {n}")
    cells: list[list[CellId]] = [[] for _ in range(n + 1)]
    source: dict[CellId, CellId] = {}
    target: dict[CellId, CellId] = {}

    def build(t: LevelTree, prefix: CellId, dim: int,
              bounds: tuple[CellId, CellId] | None) -> None:
        sectors = [prefix + (j,) for j in range(len(t.children) + 1)]
        cells[dim].extend(sectors)
        if bounds is not None:
            for s in sectors:
                source[s] = bounds[0]
                target[s] = bounds[1]
        for i, child in enumerate(t.children, start=1):
            build(child, prefix + (i,), dim + 1,
                  (prefix + (i - 1,), prefix + (i,)))

    build(tree, (), 0, None)
    return NGraph(tuple(tuple(layer) for layer in cells), source, target)


# --- operators ---------------------------------------------------------


def _every_level(f: ThetaOperator, test: Callable[[ThetaOperator], bool]) -> bool:
    """True iff test holds for f and, recursively, for every component."""
    return test(f) and all(_every_level(c, test) for row in f.components for c in row)


def is_identity(f: SimplicialOperator | ThetaOperator) -> bool:
    """True iff the Delta or Theta_n operator f is an identity: for Theta_n,
    at every level the source is the target and phi is an identity."""
    if isinstance(f, SimplicialOperator):
        return f is identity_delta(f.source)
    return _every_level(f, lambda g: g.source is g.target and is_identity(g.phi))


def factor_epi_mono(
    f: SimplicialOperator,
) -> tuple[SimplicialOperator, SimplicialOperator]:
    """The unique factorization f = mono . epi."""
    image = sorted(set(f.values))
    rank = {v: r for r, v in enumerate(image)}
    epi = SimplicialOperator(
        f.source, len(image) - 1, tuple(rank[v] for v in f.values)
    )
    mono = SimplicialOperator(len(image) - 1, f.target, tuple(image))
    return epi, mono


class DeltaClass(HashConsed):
    """What classify_delta reads off: kind is "iso", "face", "degeneracy"
    or "mixed", with the inner and outer flags."""

    __slots__ = _fields = ("kind", "inner", "outer")

    def __new__(cls, kind: str, inner: bool, outer: bool):
        return intern(cls, kind, inner, outer)


def classify_delta(f: SimplicialOperator) -> DeltaClass:
    """Taxonomy of a Delta operator.

    face = injective non-identity, degeneracy = surjective non-identity;
    the inner flag holds iff endpoints are preserved (f(0)=0, f(m)=n) and
    the outer flag iff consecutive values step by exactly 1.
    """
    if is_identity(f):
        kind = "iso"
    elif f.is_injective:
        kind = "face"
    elif f.is_surjective:
        kind = "degeneracy"
    else:
        kind = "mixed"
    inner = f.values[0] == 0 and f.values[-1] == f.target
    outer = all(b - a == 1 for a, b in zip(f.values, f.values[1:]))
    return DeltaClass(kind, inner, outer)


def segal_gamma(f: SimplicialOperator) -> GammaOperator:
    """Segal's functor gamma: [m] goes to m_bar and the i-th subset of
    gamma(f) is the half-open block {j | f(i-1) < j <= f(i)}."""
    subsets = tuple(
        tuple(range(a + 1, b + 1)) for a, b in zip(f.values, f.values[1:])
    )
    return GammaOperator(f.source, f.target, subsets)


def _preserves_endpoints(f: ThetaOperator) -> bool:
    # endpoint preservation is checked blockwise all the way down; a
    # single projection may collapse (e.g. globe onto a whiskered
    # composite) as long as the operator as a whole is monic
    return _every_level(f, lambda g: classify_delta(g.phi).inner)


def _is_outer_face(f: ThetaOperator) -> bool:
    return _every_level(f, lambda g: classify_delta(g.phi).outer)


def classify_theta(f: ThetaOperator) -> str:
    """One of identity, degeneracy, inner-face, outer-face, mixed."""
    if is_identity(f):
        return "identity"
    degeneracy, face = reedy_factor(f)
    if is_identity(face):
        return "degeneracy"
    if is_identity(degeneracy):
        if _preserves_endpoints(f):
            return "inner-face"
        if _is_outer_face(f):
            return "outer-face"
    return "mixed"


def bang(tree: LevelTree, n: int) -> ThetaOperator:
    """The unique operator from the tree to the height-0 tree: phi is the
    constant map to [0] and every block is empty."""
    m = len(tree.children)
    phi = SimplicialOperator(m, 0, (0,) * (m + 1))
    return ThetaOperator(n, tree, LEAF, phi, ((),) * m)


def embed(f: ThetaOperator) -> ThetaOperator:
    """The full embedding Theta_n -> Theta_{n+1}: same trees and phi, with
    components reinterpreted one level up."""
    rows = tuple(tuple(embed(c) for c in row) for row in f.components)
    return ThetaOperator(f.level + 1, f.source, f.target, f.phi, rows)


def diagonal(fs: list[SimplicialOperator]) -> ThetaOperator:
    """The diagonal functor delta_n: Delta^n -> Theta_n on a tuple of
    simplicial operators: phi is the first and every block slot repeats
    the diagonal of the rest, the point after the last."""
    if not fs:
        raise ValueError("diagonal needs at least one operator")
    head = fs[0]
    rest = diagonal(fs[1:]) if fs[1:] else identity_theta(LEAF, 0)
    src = LevelTree((rest.source,) * head.source)
    tgt = LevelTree((rest.target,) * head.target)
    rows = tuple((rest,) * (b - a) for a, b in zip(head.values, head.values[1:]))
    return ThetaOperator(len(fs), src, tgt, head, rows)


# --- Theta_n-sets with generically listed cells ------------------------


def listed_set(level: int, elements, act) -> FiniteThetaSet:
    """The Theta_n-set with the list elements(tree) over each tree and the
    action act, whose cells(d) tests every element over every tree of
    height <= level with d edges by is_nondegenerate."""

    def cells(d: int) -> list:
        return [(tree, x) for tree in enumerate_trees(level, d) for x in elements(tree)
                if is_nondegenerate(x_set, tree, x)]

    x_set = FiniteThetaSet(level, act, cells)
    return x_set


def em_elements(pi: FiniteAbelianGroup, n: int, tree: LevelTree) -> list:
    """The elements of K(pi,n) over the tree: the labelings of its height-n
    vertices by elements of pi."""
    return list(itertools.product(pi.elements(), repeat=count_at_height(tree, n)))


def product_set(s: LevelTree, t: LevelTree, n: int) -> FiniteThetaSet:
    """The product of representables Theta_n[S] x Theta_n[T]: elements over
    U are pairs of operators U -> S, U -> T acting by precomposition."""

    def elements(tree: LevelTree) -> list:
        return list(itertools.product(hom_theta(tree, s, n), hom_theta(tree, t, n)))

    def action(f: ThetaOperator, x):
        a, b = x
        return (compose_theta(a, f), compose_theta(b, f))

    return listed_set(n, elements, action)


def gf_fib(n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f_{n,pi}(t) = (p-1) / (1 - (p-1)(t + t^2 + ... + t^n)), as the
    coefficient tuples (numerator, denominator), constant term first."""
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    return (p - 1,), (1,) + (-(p - 1),) * n
