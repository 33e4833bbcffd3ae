from fractions import Fraction

import pytest

from thetacomb.counting import euler_char, fib_numbers, gf_coefficients, gf_em
from thetacomb.gamma import FiniteAbelianGroup
from thetacomb.presheaf import em_cell_count

from oracles import gf_fib


def test_fib_examples():
    assert fib_numbers(2, 2, 5) == [1, 1, 2, 3, 5, 8]
    assert fib_numbers(1, 2, 5) == [1, 1, 1, 1, 1, 1]
    assert fib_numbers(2, 3, 4) == [2, 4, 12, 32, 88]
    with pytest.raises(ValueError):
        fib_numbers(2, 1, 3)
    with pytest.raises(ValueError):
        fib_numbers(0, 2, 3)


def test_recursion_law_on_enumerated_counts():
    for n in range(1, 5):
        for p in (2, 3, 5):
            pi = FiniteAbelianGroup((p,))
            counts = [em_cell_count(pi, n, n + k) for k in range(13 + n)]
            assert counts[:13] == fib_numbers(n, p, 12)
            for k in range(13):
                assert (p - 1) * sum(counts[k : k + n]) == counts[k + n]


def test_gf_em_display_forms():
    assert gf_em(1, 2) == ((1,), (1, -1))
    assert gf_em(2, 2) == ((1, -1), (1, -1, -1))
    assert gf_em(2, 3) == ((1, -2), (1, -2, -2))
    assert gf_fib(2, 2) == ((1,), (1, -1, -1))
    for n, p in ((0, 2), (1, 1)):
        with pytest.raises(ValueError, match="need n >= 1 and p >= 2"):
            gf_em(n, p)
        with pytest.raises(ValueError, match="need n >= 1 and p >= 2"):
            gf_fib(n, p)


def test_gf_coefficients():
    assert gf_coefficients(gf_em(2, 2), 7) == [1, 0, 1, 1, 2, 3, 5, 8]
    assert gf_coefficients(((1,), (1,)), 3) == [1, 0, 0, 0]
    assert gf_coefficients(gf_em(3, 2), 6) == [1, 0, 0, 1, 1, 2, 4]
    assert gf_coefficients(gf_fib(2, 2), 7) == fib_numbers(2, 2, 7)


def test_gf_coefficients_needs_a_unit_constant_term():
    # (0, 1) has no power series, (2,) would give 1/2, () is no polynomial
    for denominator in ((0, 1), (2,), ()):
        with pytest.raises(ValueError, match="the denominator's constant term must be 1"):
            gf_coefficients(((1,), denominator), 2)


def test_gf_coefficients_match_fib():
    for n in range(1, 5):
        for p in range(2, 6):
            coeffs = gf_coefficients(gf_em(n, p), n + 12)
            assert coeffs[0] == 1
            assert all(c == 0 for c in coeffs[1:n])
            assert coeffs[n:] == fib_numbers(n, p, 12)
            assert all(c >= 0 for c in coeffs)


def test_euler_char():
    assert euler_char(1, 2) == Fraction(1, 2)
    assert euler_char(2, 3) == 3
    assert euler_char(3, 5) == Fraction(1, 5)
    for n in range(1, 7):
        for p in range(2, 8):
            want = Fraction(p) if n % 2 == 0 else Fraction(1, p)
            assert euler_char(n, p) == want


def test_big_integers_are_exact():
    values = fib_numbers(2, 5, 40)
    assert values[-1] > 2**64  # would overflow fixed-width arithmetic
    assert (5 - 1) * (values[38] + values[39]) == values[40]
