"""Generalized Fibonacci counts and exact generating functions.

f_{n,pi}^k counts pruned n-trees with n+k edges, weighted by
(p-1)^{#leaves} where p is the group order; the counts obey a width-n
linear recursion and are the power-series coefficients of an explicit
rational function whose value at t = -1 is the virtual Euler
characteristic p^{(-1)^n}.  A generating function is the plain pair
(numerator, denominator) of its integer coefficient tuples, constant term
first, not a hash-consed value: FiniteAbelianGroup is the one small value
class left.  All arithmetic is exact.
"""

from __future__ import annotations

Poly = tuple[int, ...]  # coefficients, constant term first


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


def gf_em(n: int, p: int) -> tuple[Poly, Poly]:
    """The cell-count generating function of K(pi,n):
    (1 - (p-1)(t + ... + t^{n-1})) / (1 - (p-1)(t + ... + t^n))."""
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    return (1,) + (-(p - 1),) * (n - 1), (1,) + (-(p - 1),) * n


def gf_coefficients(gf: tuple[Poly, Poly], max_degree: int) -> list[int]:
    """Power-series coefficients of numerator/denominator of degrees
    0..max_degree, by the integer recursion
    c_k = a_k - (b_1 c_{k-1} + ... + b_k c_0); the denominator's constant
    term must be 1."""
    numerator, denominator = gf
    if not denominator or denominator[0] != 1:
        raise ValueError("the denominator's constant term must be 1")
    out: list[int] = []
    for k in range(max_degree + 1):
        acc = numerator[k] if k < len(numerator) else 0
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[j] * out[k - j]
        out.append(acc)
    return out


def euler_char(n: int, p: int) -> Fraction:
    """Virtual Euler characteristic: gf_em(n,p) evaluated at t = -1;
    equals p for even n and 1/p for odd n."""
    from fractions import Fraction  # here, so that fib_numbers loads no fractions

    return Fraction(*(sum(a[::2]) - sum(a[1::2]) for a in gf_em(n, p)))
