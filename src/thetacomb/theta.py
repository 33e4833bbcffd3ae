"""The iterated wreath product Theta_n of the simplex category.

An operator at level n >= 1 between level-trees pairs a simplicial
operator phi between root valences with, for each source branch i, one
level-(n-1) operator per target branch k in the block
phi(i-1) < k <= phi(i).  The recursion starts at the point Theta_0, the
leaf with its identity, so Theta_1 = Delta wr Theta_0 is Delta: a level-1
operator carries one point in each slot of each block.  Operators are
built and read row by row: row i holds the operators over source branch
i's block.  Operators are hash-consed (hashcons.HashConsed), like their
trees and phi, so equality is identity; each is checked once, when
built, down to its components: the one in row i over target branch k has
level n - 1 and runs from source branch i to target branch k, and no
tree is taller than n.

Provides composition (the components through a memo of Theta_{n-1}'s
composition, the top level unmemoised), identities, hom enumeration and
a hom-set's i-th operator built alone, the retraction and monomorphism
tests with Reedy factorization, the codimension-1 faces into a tree
generated from the wreath structure (which the cellular boundary uses),
the codimension-1 retractions out of a tree, each with a section that is
the first of those faces it splits (every degeneracy of Theta_n splits),
the assembly functor gamma_n to Gamma and suspension.

One mechanism, peel, splits an element of a Theta_n-set into a
degeneracy of its non-degenerate core (Eilenberg-Zilber).  The Reedy
factorization of f: S -> T is f's non-degenerate core in Theta_n[T].
"""

from __future__ import annotations

import functools
from itertools import accumulate, combinations, islice, product
from math import prod
from typing import Callable, Iterator

from .gamma import GammaOperator, identity_gamma
from .simplex import SimplicialOperator, compose_delta, hom_delta, identity_delta
from .hashcons import HashConsed, intern
from .trees import LEAF, LevelTree, count_at_height


class ThetaShapeError(ValueError):
    pass


class ThetaCompositionError(ValueError):
    pass


class ThetaOperator(HashConsed):
    __slots__ = _fields = ("level", "source", "target", "phi", "components")

    def __new__(cls, level: int, source: LevelTree, target: LevelTree,
                phi: SimplicialOperator, components: tuple[tuple, ...]):
        return intern(cls, level, source, target, phi, components)

    def __init__(self, *args, **kwargs):
        """A no-op that takes the constructor's arguments, so that a wrapper
        counting constructor calls (perfbench's tracer) can pass them on.
        compose_theta interns its composites without the constructor, so
        such a wrapper does not see them."""

    def _build(self):
        n = self.level
        if n < 0:
            raise ThetaShapeError(f"level {n} is below 0")
        m = len(self.source.children)
        if self.phi.source != m or self.phi.target != len(self.target.children):
            raise ThetaShapeError("phi endpoints do not match root valences")
        if len(self.components) != m:
            raise ThetaShapeError("one component row per source branch required")
        values, targets = self.phi.values, self.target.children
        for i, (row, branch) in enumerate(zip(self.components, self.source.children), 1):
            if len(row) != values[i] - values[i - 1]:
                raise ThetaShapeError(f"component row {i} does not match block")
            for k, c in enumerate(row, values[i - 1] + 1):
                if c.level != n - 1:
                    fault = f"has level {c.level}"
                elif c.source is not branch:
                    fault = f"does not start at source branch {i}"
                elif c.target is not targets[k - 1]:
                    fault = f"does not end at target branch {k}"
                else:
                    continue
                raise ThetaShapeError(f"component of row {i} at target branch {k} {fault}")
        # the components bound every branch's height but those outside all blocks
        if max(self.source.height, self.target.height) > n:
            raise ThetaShapeError(f"level-{n} trees must have height <= {n}")


def identity_theta(tree: LevelTree, n: int) -> ThetaOperator:
    rows = tuple((identity_theta(c, n - 1),) for c in tree.children)
    return ThetaOperator(n, tree, tree, identity_delta(len(tree.children)), rows)


def compose_theta(g: ThetaOperator, f: ThetaOperator) -> ThetaOperator:
    """The composite g after f, componentwise at every level: row i of the
    composite is, for each operator of f's row i in turn, g's row over its
    target branch composed after it, through the memoised _compose_component.
    The composite is looked up in the intern table directly, with no
    constructor call; a new one is checked by _build there."""
    if f.level != g.level:
        raise ThetaCompositionError("level mismatch")
    if f.target is not g.source:
        raise ThetaCompositionError("endpoint mismatch")
    phi = compose_delta(g.phi, f.phi)
    rows = []
    for f_row, start in zip(f.components, f.phi.values):
        if not f_row:
            rows.append(())
            continue
        row = []
        # f_c lands on target branch k + 1, whose row in g is g.components[k]
        for k, f_c in enumerate(f_row, start):
            for g_c in g.components[k]:
                row.append(_compose_component(g_c, f_c))
        rows.append(tuple(row))
    return intern(ThetaOperator, f.level, f.source, g.target, phi, tuple(rows))


# Theta_{n-1}'s composition as the rows of a level-n composite use it.  The
# components range over far fewer pairs than the operators, so it is
# memoised; compose_theta itself is not, since a memo of every top-level
# composite grew verify's peak memory by about 30 %.
_compose_component = functools.cache(compose_theta)


@functools.cache
def hom_theta(
    source: LevelTree, target: LevelTree, n: int
) -> tuple[ThetaOperator, ...]:
    """The full finite hom-set, in a deterministic order: lexicographic in
    phi, then in the recursive component choices, row by row.  The
    recursion ends at level 0, where the leaf has one operator, the point.
    A tree taller than n raises ThetaShapeError at the first operator
    built."""
    out = []
    for phi, hom_sets, _ in _choices(source, target, n):
        for rows in product(*(product(*row) for row in hom_sets)):
            out.append(ThetaOperator(n, source, target, phi, rows))
    return tuple(out)


def _choices(source: LevelTree, target: LevelTree, n: int) -> Iterator[tuple]:
    """Each phi in hom_theta's order, with the hom-sets that an operator
    over phi takes its components from, row by row (source branch i into
    each target branch of its block), and the number of such operators."""
    for phi in hom_delta(len(source.children), len(target.children)):
        hom_sets = [[hom_theta(child, t, n - 1) for t in target.children[a:b]]
                    for child, a, b in zip(source.children, phi.values, phi.values[1:])]
        yield phi, hom_sets, prod(len(homs) for row in hom_sets for homs in row)


def hom_size(source: LevelTree, target: LevelTree, n: int) -> int:
    """len(hom_theta(source, target, n)), from the hom-sets a level down."""
    return sum(count for _, _, count in _choices(source, target, n))


def nth_theta(source: LevelTree, target: LevelTree, n: int, i: int) -> ThetaOperator:
    """hom_theta(source, target, n)[i], the one operator built: past the
    operators over earlier phi, hom_theta's i-th choice of rows over phi."""
    for phi, hom_sets, count in _choices(source, target, n):
        if i < count:
            rows = next(islice(product(*(product(*row) for row in hom_sets)), i, None))
            return ThetaOperator(n, source, target, phi, rows)
        i -= count
    raise IndexError("operator index out of range")


# --- retractions and monomorphisms ------------------------------------


def is_retraction(f: ThetaOperator) -> bool:
    """True iff phi is a monotone surjection and every block is empty or a
    singleton whose operator is recursively a retraction."""
    return f.phi.is_surjective and all(is_retraction(c) for row in f.components for c in row)


@functools.cache
def codim1_retractions(
    tree: LevelTree, n: int
) -> tuple[tuple[ThetaOperator, ThetaOperator], ...]:
    """All retractions out of the tree whose target has one edge fewer,
    each paired with a section: the first codimension-1 face into the tree
    that it splits.  Every degeneracy of Theta_n splits, so there is one,
    and any will do: if x = r*y, then s*x = y.

    Every retraction factors through one of these: either a leaf branch is
    dropped at the root, or a codimension-1 retraction is applied inside a
    single branch.  At level 1 every branch is a leaf, so only the first
    kind occurs.
    """
    branches = tree.children
    m = len(branches)
    ids = [(identity_theta(c, n - 1),) for c in branches]
    choices = [  # (phi, component rows) per retraction
        (SimplicialOperator(m, m - 1, tuple(j if j <= i else j - 1 for j in range(m + 1))),
         ids[:i] + [()] + ids[i + 1 :])
        for i in range(m)
        if branches[i] == LEAF
    ]
    for i in range(m):
        choices.extend(
            (identity_delta(m), ids[:i] + [(sub,)] + ids[i + 1 :])
            for sub, _ in codim1_retractions(branches[i], n - 1)
        )
    out = []
    for phi, rows in choices:
        target = LevelTree(tuple(c.target for row in rows for c in row))
        r = ThetaOperator(n, tree, target, phi, tuple(rows))
        one = identity_theta(target, n)
        out.append((r, next(
            s for s in codim1_faces(tree, n)
            if s.source is target and compose_theta(r, s) is one
        )))
    return tuple(out)


def degenerate_along(
    tree: LevelTree, n: int, act: Callable[[ThetaOperator, object], object], x
) -> Iterator[tuple[ThetaOperator, object]]:
    """The pairs (r, y) with x = act(r, y), where (r, s) runs over the
    codimension-1 retractions out of the tree and y = act(s, x).  act(f, x)
    pulls x back along f, as in a Theta_n-set."""
    for r, s in codim1_retractions(tree, n):
        y = act(s, x)
        if act(r, y) == x:
            yield r, y


def peel(
    tree: LevelTree, n: int, act: Callable[[ThetaOperator, object], object], x
) -> tuple[LevelTree, ThetaOperator, object]:
    """The Eilenberg-Zilber decomposition x = act(d, y): the core tree U,
    the degeneracy d: tree -> U and the non-degenerate y over U.  Peels
    the first codimension-1 degeneracy until none is left; the result is
    unique, so the order does not matter."""
    for r, y in degenerate_along(tree, n, act, x):
        core, degeneracy, z = peel(r.target, n, act, y)
        return core, compose_theta(degeneracy, r), z
    return tree, identity_theta(tree, n), x


def _precompose(g: ThetaOperator, f: ThetaOperator) -> ThetaOperator:
    """The action of the representable Theta_n[T]: f pulled back along g."""
    return compose_theta(f, g)


def _shuffle_pairs(
    u: LevelTree, v: LevelTree, n: int
) -> list[tuple[ThetaOperator, ThetaOperator]]:
    """The top-dimensional non-degenerate elements of Theta_n[U] x Theta_n[V]:
    one pair per (a,b)-shuffle of the a root branches of U with the b of V.
    The source interleaves the branches; each projection sends the branches
    of its own tree identically onto them and collapses the others."""
    a, b = len(u.children), len(v.children)
    out = []
    for positions in combinations(range(a + b), a):
        from_u = [p in positions for p in range(a + b)]
        u_iter, v_iter = iter(u.children), iter(v.children)
        source = LevelTree(tuple(next(u_iter) if x else next(v_iter) for x in from_u))
        pair = []
        for target, keep in ((u, from_u), (v, [not x for x in from_u])):
            values = (0, *accumulate(keep))
            phi = SimplicialOperator(a + b, len(target.children), values)
            rows = tuple(
                (identity_theta(branch, n - 1),) if k else ()
                for k, branch in zip(keep, source.children)
            )
            pair.append(ThetaOperator(n, source, target, phi, rows))
        out.append(tuple(pair))
    return out


@functools.cache
def codim1_faces(target: LevelTree, n: int) -> tuple[ThetaOperator, ...]:
    """Every monomorphism into the tree whose source has one edge fewer,
    each exactly once, read off the wreath structure Theta_n = Delta wr
    Theta_{n-1}.  A dimension count leaves three kinds:

    - outer: phi = delta^0 or delta^m drops the first or last root branch
      when it is a leaf, with identity components;
    - inner: phi = delta^j, 0 < j < m, merges branches j and j+1 into one
      source branch that maps to both by a shuffle pair (_shuffle_pairs),
      with identities elsewhere;
    - inside one branch: phi = id, a codimension-1 face in one branch and
      identities elsewhere.

    At level 1 all branches are leaves: the inner face's shuffle pair is
    the one pair of points, and no branch has a face inside it.
    """
    branches = target.children
    m = len(branches)
    cofaces = [
        SimplicialOperator(m - 1, m, tuple(k for k in range(m + 1) if k != j))
        for j in range(m + 1)
    ] if m else []
    ids = [(identity_theta(c, n - 1),) for c in branches]
    choices = []  # (phi, component rows) per face
    for j, phi in enumerate(cofaces):
        if 0 < j < m:
            choices.extend(
                (phi, ids[: j - 1] + [pair] + ids[j + 1 :])
                for pair in _shuffle_pairs(branches[j - 1], branches[j], n - 1)
            )
        else:
            drop = min(j, m - 1)
            if branches[drop] == LEAF:
                choices.append((phi, ids[:drop] + ids[drop + 1 :]))
    for i in range(m):
        choices.extend(
            (identity_delta(m), ids[:i] + [(sub,)] + ids[i + 1 :])
            for sub in codim1_faces(branches[i], n - 1)
        )
    return tuple(
        ThetaOperator(
            n, LevelTree(tuple(row[0].source for row in rows)), target, phi, tuple(rows)
        )
        for phi, rows in choices
    )


def is_face(f: ThetaOperator) -> bool:
    """Monomorphism test: f is non-degenerate in the representable
    Theta_n[T].  An injective phi is necessary and cheap, so it goes first.
    Filtering hom_theta with it is the test oracle for codim1_faces."""
    return f.phi.is_injective and not any(
        degenerate_along(f.source, f.level, _precompose, f)
    )


def reedy_factor(f: ThetaOperator) -> tuple[ThetaOperator, ThetaOperator]:
    """The unique factorization f = face . degeneracy, the degeneracy a
    retraction and the face a monomorphism: the face is f's non-degenerate
    core in the representable Theta_n[T] (peel).  The tests cross-check it
    against a brute-force search."""
    _, degeneracy, face = peel(f.source, f.level, _precompose, f)
    return degeneracy, face


# --- functors ----------------------------------------------------------


@functools.cache
def gamma_n(f: ThetaOperator) -> GammaOperator:
    """The assembly functor Theta_n -> Gamma: the trace of f on height-n
    vertices, in planar order: a vertex of source branch i goes to its images
    under row i's operators, each shifted past the earlier target branches.
    The point's one vertex, the root, goes to itself."""
    n = f.level
    if n == 0:
        return identity_gamma(1)
    offsets = (0, *accumulate(count_at_height(c, n - 1) for c in f.target.children))
    subsets = []
    for row, start, branch in zip(f.components, f.phi.values, f.source.children):
        images = [(offsets[k], gamma_n(c).subsets) for k, c in enumerate(row, start)]
        subsets.extend(
            tuple(offset + w for offset, sub in images for w in sub[v])
            for v in range(count_at_height(branch, n - 1))
        )
    return GammaOperator(len(subsets), offsets[-1], tuple(subsets))


def suspend(f: ThetaOperator) -> ThetaOperator:
    """The suspension Theta_n -> Theta_{n+1}: trees grow one root edge and
    the operator becomes (id_[1]; f)."""
    return ThetaOperator(
        f.level + 1,
        LevelTree((f.source,)),
        LevelTree((f.target,)),
        identity_delta(1),
        ((f,),),
    )

