"""The simplex category Delta.

Monotone operators between finite ordinals [m] = {0 < 1 < ... < m},
stored as full value lists and hash-consed (hashcons.HashConsed): one
object per operator, so equality is identity.  Provides composition,
memoised because Theta_n composes the same few pairs of phi's over and
over; epi-mono factorization, the face/degeneracy taxonomy with
inner/outer flags, hom enumeration, and Segal's functor gamma: Delta ->
Gamma.
"""

from __future__ import annotations

import functools
import itertools

from .gamma import GammaOperator
from .hashcons import HashConsed, intern


class SimplicialShapeError(ValueError):
    pass


class SimplicialCompositionError(ValueError):
    pass


class SimplicialOperator(HashConsed):
    __slots__ = _fields = ("source", "target", "values")

    def __new__(cls, source: int, target: int, values: tuple[int, ...]):
        return intern(cls, source, target, values)

    def _build(self):
        m, n = self.source, self.target
        if min(m, n) < 0:
            raise SimplicialShapeError(f"endpoints [{m}] -> [{n}] must be >= 0")
        if len(self.values) != m + 1:
            raise SimplicialShapeError(f"expected {m + 1} values, got {len(self.values)}")
        prev = 0
        for v in self.values:
            if not prev <= v <= n:
                raise SimplicialShapeError(
                    f"values {self.values} not weakly increasing in 0..{n}"
                )
            prev = v

    def __call__(self, i: int) -> int:
        return self.values[i]

    @property
    def is_injective(self) -> bool:
        return all(b > a for a, b in zip(self.values, self.values[1:]))

    @property
    def is_surjective(self) -> bool:
        if self.source < self.target:
            return False
        if self.values and (self.values[0] != 0 or self.values[-1] != self.target):
            return False
        return all(b - a <= 1 for a, b in zip(self.values, self.values[1:]))

    @property
    def is_identity(self) -> bool:
        return self is identity_delta(self.source)


def identity_delta(m: int) -> SimplicialOperator:
    return SimplicialOperator(m, m, tuple(range(m + 1)))


@functools.cache
def compose_delta(
    g: SimplicialOperator, f: SimplicialOperator
) -> SimplicialOperator:
    if f.target != g.source:
        raise SimplicialCompositionError(
            f"cannot compose [{f.source}]->[{f.target}] with "
            f"[{g.source}]->[{g.target}]"
        )
    return SimplicialOperator(
        f.source, g.target, tuple(map(g.values.__getitem__, f.values))
    )


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
    if f.is_identity:
        kind = "iso"
    elif f.is_injective:
        kind = "face"
    elif f.is_surjective:
        kind = "degeneracy"
    else:
        kind = "mixed"
    inner = f(0) == 0 and f(f.source) == f.target
    outer = all(b - a == 1 for a, b in zip(f.values, f.values[1:]))
    return DeltaClass(kind, inner, outer)


def hom_delta(m: int, n: int) -> list[SimplicialOperator]:
    """All monotone maps [m] -> [n], in lexicographic order of value lists."""
    return [
        SimplicialOperator(m, n, values)
        for values in itertools.combinations_with_replacement(
            range(n + 1), m + 1
        )
    ]


def segal_gamma(f: SimplicialOperator) -> GammaOperator:
    """Segal's functor gamma: [m] goes to m_bar and the i-th subset of
    gamma(f) is the half-open block {j | f(i-1) < j <= f(i)}."""
    subsets = tuple(
        tuple(range(f(i - 1) + 1, f(i) + 1)) for i in range(1, f.source + 1)
    )
    return GammaOperator(f.source, f.target, subsets)
