"""Segal's category Gamma and the Gamma-set H(pi).

Objects of Gamma are the finite sets n_bar = {1..n}; a morphism
m_bar -> n_bar is an ordered m-tuple of pairwise disjoint subsets of
{1..n}.  Operators are hash-consed (hashcons.HashConsed): one object per
operator, so equality is identity; composition is memoised on them,
since gamma_n's functoriality check composes a few hundred pairs tens
of thousands of times.  Also here: finite abelian groups (products of
cyclic groups) and the contravariant action defining H(pi), memoised
too, since the Theta_n-sets pull few distinct elements back many times.
"""

from __future__ import annotations

import functools
import itertools

from .hashcons import HashConsed, intern


class GammaShapeError(ValueError):
    pass


class GammaCompositionError(ValueError):
    pass


class GammaOperator(HashConsed):
    __slots__ = _fields = ("source", "target", "subsets")

    def __new__(cls, source: int, target: int, subsets: tuple[tuple[int, ...], ...]):
        return intern(cls, source, target, subsets)

    def _build(self):
        m, n = self.source, self.target
        if min(m, n) < 0:
            raise GammaShapeError(f"endpoints {m} -> {n} must be >= 0")
        if len(self.subsets) != m:
            raise GammaShapeError(f"expected {m} subsets, got {len(self.subsets)}")
        seen: set[int] = set()
        for sub in self.subsets:
            if list(sub) != sorted(sub):
                raise GammaShapeError(f"subset {sub} not sorted")
            for v in sub:
                if not 1 <= v <= n:
                    raise GammaShapeError(f"element {v} outside 1..{n}")
                if v in seen:
                    raise GammaShapeError(f"element {v} appears twice")
                seen.add(v)


def identity_gamma(n: int) -> GammaOperator:
    return GammaOperator(n, n, tuple((i,) for i in range(1, n + 1)))


@functools.cache
def compose_gamma(g: GammaOperator, f: GammaOperator) -> GammaOperator:
    """Composite of f: k -> m followed by g: m -> n; the i-th subset is the
    union of g's subsets over f's i-th subset."""
    if f.target != g.source:
        raise GammaCompositionError(
            f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}"
        )
    subsets = tuple(
        tuple(sorted(itertools.chain.from_iterable(g.subsets[j - 1] for j in sub)))
        for sub in f.subsets
    )
    return GammaOperator(f.source, g.target, subsets)


def hom_gamma(m: int, n: int) -> list[GammaOperator]:
    """All Gamma operators m_bar -> n_bar: each element of n_bar goes to at
    most one of the m subsets."""
    out = []
    for assignment in itertools.product(range(m + 1), repeat=n):
        subsets = tuple(
            tuple(v for v in range(1, n + 1) if assignment[v - 1] == i)
            for i in range(1, m + 1)
        )
        out.append(GammaOperator(m, n, subsets))
    return out


# --- finite abelian groups --------------------------------------------


class FiniteAbelianGroup(HashConsed):
    """Product of cyclic groups Z/m_1 x ... x Z/m_r, written additively."""

    __slots__ = _fields = ("cyclic_orders",)

    def __new__(cls, cyclic_orders: tuple[int, ...]):
        return intern(cls, cyclic_orders)

    def _build(self):
        if any(m < 1 for m in self.cyclic_orders):
            raise ValueError("cyclic orders must be >= 1")

    @property
    def order(self) -> int:
        return functools.reduce(lambda a, b: a * b, self.cyclic_orders, 1)

    @property
    def neutral(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.cyclic_orders))

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(m) for m in self.cyclic_orders)))

    def non_neutral(self) -> list[tuple[int, ...]]:
        e = self.neutral
        return [x for x in self.elements() if x != e]


def parse_group(spec: str) -> FiniteAbelianGroup:
    """Parse a group spec like "z2" or "z2xz4"."""
    orders = []
    for part in spec.lower().split("x"):
        digits = part[1:]
        if not part.startswith("z") or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad group spec {spec!r}")
        orders.append(int(digits))
    return FiniteAbelianGroup(tuple(orders))


@functools.cache
def h_pi_act(
    pi: FiniteAbelianGroup, u: GammaOperator, x: tuple
) -> tuple:
    """The Gamma-set H(pi): x in pi^n pulled back along u: m -> n gives the
    tuple in pi^m whose i-th entry is the sum of x over u's i-th subset."""
    if len(x) != u.target:
        raise GammaShapeError(f"element has length {len(x)}, expected {u.target}")
    neutral = pi.neutral
    return tuple(
        x[sub[0] - 1] if len(sub) == 1
        else functools.reduce(pi.add, (x[j - 1] for j in sub), neutral)
        for sub in u.subsets
    )
