"""The simplex category Delta.

Monotone operators between finite ordinals [m] = {0 < 1 < ... < m},
stored as full value lists and hash-consed (hashcons.HashConsed): one
object per operator, so equality is identity.  Provides identities,
composition, memoised because Theta_n composes the same few pairs of
phi's over and over, and hom enumeration.
"""

from __future__ import annotations

import functools
import itertools

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


def hom_delta(m: int, n: int) -> list[SimplicialOperator]:
    """All monotone maps [m] -> [n], in lexicographic order of value lists."""
    return [
        SimplicialOperator(m, n, values)
        for values in itertools.combinations_with_replacement(
            range(n + 1), m + 1
        )
    ]

