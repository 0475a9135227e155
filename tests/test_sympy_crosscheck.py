"""Exact cross-checks of the number-theory tables against sympy.

sympy is an independent implementation: trial division, the totient and the
Bernoulli and binomial tables must agree with it value for value.
"""

from fractions import Fraction

import pytest

from meansq.exact import bernoulli, binomial
from meansq.multiplicative import _factor, euler_phi

sympy = pytest.importorskip("sympy")

# Every k up to 2000, and a window around 10^6 (999983 is prime,
# 999999 = 3^3 * 7 * 11 * 13 * 37, 1000001 = 101 * 9901).
MODULI = (*range(1, 2001), *range(10**6 - 20, 10**6 + 21))


def test_factorize():
    for k in MODULI:
        primes, exponents, _ = _factor(k)
        assert dict(zip(primes, exponents)) == sympy.factorint(k), k


def test_euler_phi():
    for k in MODULI:
        assert euler_phi(k) == int(sympy.totient(k)), k


def test_bernoulli():
    # sympy uses B_1 = +1/2; this package uses B_1 = -1/2.
    assert bernoulli(1) == Fraction(-1, 2)
    for n in (0, *range(2, 61)):
        b = sympy.bernoulli(n)
        assert bernoulli(n) == Fraction(int(b.p), int(b.q)), n


def test_binomial():
    for n in range(61):
        for k in range(-2, n + 3):
            assert binomial(n, k) == int(sympy.binomial(n, k)), (n, k)
