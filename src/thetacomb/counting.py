"""Generalized Fibonacci counts and exact generating functions.

f_{n,pi}^k counts pruned n-trees with n+k edges, weighted by
(p-1)^{#leaves} where p is the group order; the counts obey a width-n
linear recursion and are the power-series coefficients of an explicit
rational function whose value at t = -1 is the virtual Euler
characteristic p^{(-1)^n}.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Poly = tuple[int, ...]  # coefficients, constant term first


def _poly_trim(c: list[int]) -> Poly:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_eval(a: Poly, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class RationalGF:
    """Quotient of integer-coefficient polynomials, kept as given (no GCD
    reduction); exact arithmetic and power-series expansion."""

    numerator: Poly
    denominator: Poly

    def __post_init__(self):
        if all(c == 0 for c in self.denominator):
            raise ZeroDivisionError("zero denominator polynomial")

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            _poly_add(
                _poly_mul(self.numerator, other.denominator),
                _poly_mul(other.numerator, self.denominator),
            ),
            _poly_mul(self.denominator, other.denominator),
        )

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            _poly_mul(self.numerator, other.numerator),
            _poly_mul(self.denominator, other.denominator),
        )

    def evaluate(self, t: Fraction) -> Fraction:
        den = _poly_eval(self.denominator, t)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at t={t}")
        return _poly_eval(self.numerator, t) / den

    def coefficients(self, count: int) -> list[int]:
        """First `count` power-series coefficients at t = 0."""
        if self.denominator[0] == 0:
            raise ExpansionError("denominator has zero constant term")
        d0 = Fraction(self.denominator[0])
        out: list[Fraction] = []
        for k in range(count):
            acc = Fraction(self.numerator[k] if k < len(self.numerator) else 0)
            for j in range(1, min(k, len(self.denominator) - 1) + 1):
                acc -= self.denominator[j] * out[k - j]
            out.append(acc / d0)
        ints = []
        for c in out:
            if c.denominator != 1:
                raise ExpansionError(f"non-integer coefficient {c}")
            ints.append(c.numerator)
        return ints


def fib_numbers(n: int, p: int, count: int) -> list[int]:
    """f_{n,pi}^0 .. f_{n,pi}^count by the recursion
    (p-1)(f^k + ... + f^{k+n-1}) = f^{k+n}, seeded with f^k = 0 for k < 0
    and f^0 = p - 1."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    if p < 2:
        raise ValueError("group order p must be >= 2")
    window = [0] * (n - 1) + [p - 1]
    out = [p - 1]
    while len(out) <= count:
        nxt = (p - 1) * sum(window)
        out.append(nxt)
        window = window[1:] + [nxt]
    return out


def gf_fib(n: int, p: int) -> RationalGF:
    """f_{n,pi}(t) = (p-1) / (1 - (p-1)(t + t^2 + ... + t^n))."""
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    return RationalGF((p - 1,), (1,) + (-(p - 1),) * n)


def gf_em(n: int, p: int) -> RationalGF:
    """The cell-count generating function of K(pi,n):
    (1 - (p-1)(t + ... + t^{n-1})) / (1 - (p-1)(t + ... + t^n))."""
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    return RationalGF((1,) + (-(p - 1),) * (n - 1), (1,) + (-(p - 1),) * n)


def gf_coefficients(g: RationalGF, max_degree: int) -> list[int]:
    """Power-series coefficients of degrees 0..max_degree."""
    return g.coefficients(max_degree + 1)


def euler_char(n: int, p: int) -> Fraction:
    """Virtual Euler characteristic: gf_em(n,p) evaluated at t = -1;
    equals p for even n and 1/p for odd n."""
    return gf_em(n, p).evaluate(Fraction(-1))
