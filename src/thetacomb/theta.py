"""The iterated wreath product Theta_n of the simplex category.

An operator at level n >= 2 between level-trees pairs a simplicial
operator phi between root valences with, for each source branch i, one
lower-level operator per target branch k in the block
phi(i-1) < k <= phi(i).  Level 1 is Delta itself: the operator carries
only phi and the trees are corollas.

Provides composition, identities, hom enumeration, the retraction /
monomorphism taxonomy with Reedy factorization, the assembly functor
gamma_n to Gamma, suspension, level embedding and the multi-simplicial
diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .gamma import GammaOperator, assemble
from .simplex import (
    SimplicialOperator,
    compose_delta,
    factor_epi_mono,
    hom_delta,
    identity_delta,
    segal_gamma,
)
from .trees import LEAF, LevelTree, corolla, count_at_height


class ThetaShapeError(ValueError):
    pass


class ThetaCompositionError(ValueError):
    pass


@dataclass(frozen=True)
class ThetaOperator:
    level: int
    source: LevelTree
    target: LevelTree
    phi: SimplicialOperator
    components: tuple[tuple["ThetaOperator", ...], ...] = ()

    def __post_init__(self):
        m = len(self.source.children)
        if self.phi.source != m or self.phi.target != len(self.target.children):
            raise ThetaShapeError("phi endpoints do not match root valences")
        if self.level == 1:
            if self.components:
                raise ThetaShapeError("level-1 operators carry no components")
            if self.source.height > 1 or self.target.height > 1:
                raise ThetaShapeError("level-1 trees must have height <= 1")
        else:
            if len(self.components) != m:
                raise ThetaShapeError("one component row per source branch required")
            for i in range(1, m + 1):
                if len(self.components[i - 1]) != self.phi(i) - self.phi(i - 1):
                    raise ThetaShapeError(f"component row {i} does not match block")

    def block(self, i: int) -> range:
        """Target branch indices covered by source branch i (1-based)."""
        return range(self.phi(i - 1) + 1, self.phi(i) + 1)

    def component(self, i: int, k: int) -> "ThetaOperator":
        return self.components[i - 1][k - self.phi(i - 1) - 1]

    @property
    def is_identity(self) -> bool:
        if self.source != self.target or not self.phi.is_identity:
            return False
        return all(c.is_identity for row in self.components for c in row)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "src": self.source.render(),
            "tgt": self.target.render(),
            "phi": list(self.phi.values),
            "components": [
                [c.to_json_dict() for c in row] for row in self.components
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def identity_theta(tree: LevelTree, n: int) -> ThetaOperator:
    if tree.height > n:
        raise ThetaShapeError(f"tree height {tree.height} exceeds level {n}")
    m = len(tree.children)
    phi = identity_delta(m)
    if n == 1:
        return ThetaOperator(1, tree, tree, phi)
    rows = tuple((identity_theta(c, n - 1),) for c in tree.children)
    return ThetaOperator(n, tree, tree, phi, rows)


def compose_theta(g: ThetaOperator, f: ThetaOperator) -> ThetaOperator:
    """The composite g after f, componentwise at every level."""
    if f.level != g.level:
        raise ThetaCompositionError("level mismatch")
    if f.target != g.source:
        raise ThetaCompositionError("endpoint mismatch")
    phi = compose_delta(g.phi, f.phi)
    if f.level == 1:
        return ThetaOperator(1, f.source, g.target, phi)
    rows = []
    for i in range(1, len(f.source.children) + 1):
        row = []
        for l in range(phi(i - 1) + 1, phi(i) + 1):
            for k in f.block(i):
                if g.phi(k - 1) < l <= g.phi(k):
                    row.append(compose_theta(g.component(k, l), f.component(i, k)))
                    break
            else:  # pragma: no cover - blocks partition the composite block
                raise ThetaCompositionError("no block index found")
        rows.append(tuple(row))
    return ThetaOperator(f.level, f.source, g.target, phi, tuple(rows))


def bang(tree: LevelTree, n: int) -> ThetaOperator:
    """The unique operator from the tree to the height-0 tree: phi is the
    constant map to [0] and every block is empty."""
    m = len(tree.children)
    phi = SimplicialOperator(m, 0, (0,) * (m + 1))
    if n == 1:
        return ThetaOperator(1, tree, LEAF, phi)
    return ThetaOperator(n, tree, LEAF, phi, ((),) * m)


@lru_cache(maxsize=None)
def hom_theta(
    source: LevelTree, target: LevelTree, n: int
) -> tuple[ThetaOperator, ...]:
    """The full finite hom-set, in a deterministic order: lexicographic in
    phi, then in the recursive component choices."""
    if source.height > n or target.height > n:
        raise ThetaShapeError("tree height exceeds level")
    m, mt = len(source.children), len(target.children)
    out = []
    for phi in hom_delta(m, mt):
        if n == 1:
            out.append(ThetaOperator(1, source, target, phi))
            continue
        slot_choices = []
        for i in range(1, m + 1):
            for k in range(phi(i - 1) + 1, phi(i) + 1):
                slot_choices.append(
                    hom_theta(source.children[i - 1], target.children[k - 1], n - 1)
                )
        for picks in product(*slot_choices):
            rows = []
            pos = 0
            for i in range(1, m + 1):
                width = phi(i) - phi(i - 1)
                rows.append(tuple(picks[pos : pos + width]))
                pos += width
            out.append(ThetaOperator(n, source, target, phi, tuple(rows)))
    return tuple(out)


# --- retractions and monomorphisms ------------------------------------


def is_retraction(f: ThetaOperator) -> bool:
    """True iff phi is a monotone surjection and every block is empty or a
    singleton whose operator is recursively a retraction."""
    if not f.phi.is_surjective:
        return False
    return all(is_retraction(c) for row in f.components for c in row)


def codim1_retractions(
    tree: LevelTree, n: int
) -> list[tuple[ThetaOperator, ThetaOperator]]:
    """All retractions out of the tree whose target has one edge fewer,
    each paired with a section.

    Every retraction factors through one of these: either a leaf branch is
    dropped at the root, or a codimension-1 retraction is applied inside a
    single branch.
    """
    m = len(tree.children)
    out: list[tuple[ThetaOperator, ThetaOperator]] = []
    for i in range(1, m + 1):
        if tree.children[i - 1].edges == 0:
            # drop leaf branch i
            smaller = LevelTree(tree.children[: i - 1] + tree.children[i:])
            r_phi = SimplicialOperator(
                m, m - 1, tuple(j if j < i else j - 1 for j in range(m + 1))
            )
            s_phi = SimplicialOperator(
                m - 1, m, tuple(j if j < i else j + 1 for j in range(m))
            )
            if n == 1:
                out.append(
                    (
                        ThetaOperator(1, tree, smaller, r_phi),
                        ThetaOperator(1, smaller, tree, s_phi),
                    )
                )
                continue
            r_rows = []
            for j in range(1, m + 1):
                if j == i:
                    r_rows.append(())
                else:
                    r_rows.append((identity_theta(tree.children[j - 1], n - 1),))
            # section block for the branch bridging the dropped leaf covers
            # both S_i (via the unique map to the leaf) and S_{i+1}
            s_rows = []
            for j in range(1, m):
                src_branch = smaller.children[j - 1]
                row = []
                for k in range(s_phi(j - 1) + 1, s_phi(j) + 1):
                    if k == i:
                        row.append(bang(src_branch, n - 1))
                    else:
                        row.append(identity_theta(src_branch, n - 1))
                s_rows.append(tuple(row))
            out.append(
                (
                    ThetaOperator(n, tree, smaller, r_phi, tuple(r_rows)),
                    ThetaOperator(n, smaller, tree, s_phi, tuple(s_rows)),
                )
            )
    if n >= 2:
        for i in range(1, m + 1):
            for r_sub, s_sub in codim1_retractions(tree.children[i - 1], n - 1):
                smaller = LevelTree(
                    tree.children[: i - 1] + (r_sub.target,) + tree.children[i:]
                )
                r_rows = tuple(
                    (r_sub,) if j == i else (identity_theta(tree.children[j - 1], n - 1),)
                    for j in range(1, m + 1)
                )
                s_rows = tuple(
                    (s_sub,) if j == i else (identity_theta(smaller.children[j - 1], n - 1),)
                    for j in range(1, m + 1)
                )
                out.append(
                    (
                        ThetaOperator(n, tree, smaller, identity_delta(m), r_rows),
                        ThetaOperator(n, smaller, tree, identity_delta(m), s_rows),
                    )
                )
    return out


def _factors_through(f: ThetaOperator, idem: ThetaOperator) -> bool:
    """Whether f factors through the retraction r with section s, given the
    idempotent s.r: f = g.r for some g iff f.(s.r) = f."""
    return compose_theta(f, idem) == f


def is_face(f: ThetaOperator) -> bool:
    """Monomorphism test: phi injective and no block family jointly factors
    through a codimension-1 retraction of its source branch."""
    if not f.phi.is_injective:
        return False
    if f.level == 1:
        return True
    for i in range(1, len(f.source.children) + 1):
        family = f.components[i - 1]
        for r, s in codim1_retractions(f.source.children[i - 1], f.level - 1):
            idem = compose_theta(s, r)
            if all(_factors_through(c, idem) for c in family):
                return False
    return True


def reedy_factor(f: ThetaOperator) -> tuple[ThetaOperator, ThetaOperator]:
    """The unique factorization f = face . degeneracy with the degeneracy a
    retraction and the face a monomorphism.

    The degeneracy is extracted constructively: first the epi part of phi
    (collapsed branches map trivially), then per remaining branch the
    joint degeneracy of its component family, peeled off one
    codimension-1 retraction at a time until the family is jointly
    non-degenerate.  Uniqueness makes the greedy order irrelevant; the
    test suite cross-checks against a brute-force search.
    """
    n = f.level
    if n == 1:
        epi, mono = factor_epi_mono(f.phi)
        mid = corolla(epi.target)
        return (
            ThetaOperator(1, f.source, mid, epi),
            ThetaOperator(1, mid, f.target, mono),
        )
    m = len(f.source.children)
    psi, rho = factor_epi_mono(f.phi)
    # step 1: collapse the branches with empty psi-block
    kept = [i for i in range(1, m + 1) if psi(i) > psi(i - 1)]
    mid1 = LevelTree(tuple(f.source.children[i - 1] for i in kept))
    d1_rows = tuple(
        (identity_theta(f.source.children[i - 1], n - 1),)
        if psi(i) > psi(i - 1)
        else ()
        for i in range(1, m + 1)
    )
    d1 = ThetaOperator(n, f.source, mid1, psi, d1_rows)
    # step 2: per remaining branch, peel off the joint degeneracy
    sigmas = []  # retraction per branch of mid1
    families = []  # quotiented component rows
    for idx, i in enumerate(kept):
        branch = mid1.children[idx]
        sigma = identity_theta(branch, n - 1)
        family = list(f.components[i - 1])
        progress = True
        while progress:
            progress = False
            for r, s in codim1_retractions(branch, n - 1):
                idem = compose_theta(s, r)
                if all(_factors_through(c, idem) for c in family):
                    family = [compose_theta(c, s) for c in family]
                    sigma = compose_theta(r, sigma)
                    branch = r.target
                    progress = True
                    break
        sigmas.append(sigma)
        families.append(tuple(family))
    mid2 = LevelTree(tuple(s.target for s in sigmas))
    d2 = ThetaOperator(
        n, mid1, mid2, identity_delta(len(kept)), tuple((s,) for s in sigmas)
    )
    degeneracy = compose_theta(d2, d1)
    face = ThetaOperator(n, mid2, f.target, rho, tuple(families))
    return degeneracy, face


def _preserves_endpoints(f: ThetaOperator) -> bool:
    if f.phi(0) != 0 or f.phi(f.phi.source) != f.phi.target:
        return False
    return all(_preserves_endpoints(c) for row in f.components for c in row)


def _is_inner_face(f: ThetaOperator) -> bool:
    # endpoint preservation is checked blockwise all the way down; a
    # single projection may collapse (e.g. globe onto a whiskered
    # composite) as long as the operator as a whole is monic
    return is_face(f) and _preserves_endpoints(f)


def _is_outer_face(f: ThetaOperator) -> bool:
    values = f.phi.values
    if any(b - a != 1 for a, b in zip(values, values[1:])):
        return False
    return all(_is_outer_face(c) for row in f.components for c in row)


def classify_theta(f: ThetaOperator) -> str:
    """One of identity, degeneracy, inner-face, outer-face, mixed."""
    if f.is_identity:
        return "identity"
    degeneracy, face = reedy_factor(f)
    if face.is_identity:
        return "degeneracy"
    if degeneracy.is_identity:
        if _is_inner_face(f):
            return "inner-face"
        if _is_outer_face(f):
            return "outer-face"
    return "mixed"


def dim_theta(tree: LevelTree) -> int:
    """Dimension of a tree-shaped cell: its edge count, equal to the
    recursive wreath formula m + sum of child dimensions."""
    return tree.edges


# --- functors ----------------------------------------------------------


@lru_cache(maxsize=None)
def gamma_n(f: ThetaOperator) -> GammaOperator:
    """The assembly functor Theta_n -> Gamma: the trace of f on height-n
    vertices, in planar order."""
    n = f.level
    if n == 1:
        return segal_gamma(f.phi)
    outer = segal_gamma(f.phi)
    source_sizes = [count_at_height(c, n - 1) for c in f.source.children]
    target_sizes = [count_at_height(c, n - 1) for c in f.target.children]
    components = {
        (i, k): gamma_n(f.component(i, k))
        for i in range(1, len(f.source.children) + 1)
        for k in f.block(i)
    }
    return assemble(outer, components, source_sizes, target_sizes)


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


def embed(f: ThetaOperator) -> ThetaOperator:
    """The full embedding Theta_n -> Theta_{n+1}: same trees and phi, with
    components reinterpreted one level up."""
    if f.level == 1:
        rows = tuple(
            tuple(identity_theta(LEAF, 1) for _ in f.block(i))
            for i in range(1, f.phi.source + 1)
        )
        return ThetaOperator(2, f.source, f.target, f.phi, rows)
    rows = tuple(tuple(embed(c) for c in row) for row in f.components)
    return ThetaOperator(f.level + 1, f.source, f.target, f.phi, rows)


def diagonal(fs: list[SimplicialOperator]) -> ThetaOperator:
    """The diagonal functor delta_n: Delta^n -> Theta_n on a tuple of
    simplicial operators: phi is the first and every block slot repeats
    the diagonal of the rest."""
    if not fs:
        raise ValueError("diagonal needs at least one operator")
    head = fs[0]
    if len(fs) == 1:
        return ThetaOperator(1, corolla(head.source), corolla(head.target), head)
    rest = diagonal(fs[1:])
    src = LevelTree((rest.source,) * head.source)
    tgt = LevelTree((rest.target,) * head.target)
    rows = tuple(
        tuple(rest for _ in range(head(i) - head(i - 1)))
        for i in range(1, head.source + 1)
    )
    return ThetaOperator(len(fs), src, tgt, head, rows)
