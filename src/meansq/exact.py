"""Exact combinatorial scalars.

Everything downstream (sine power sums, mean-square closed forms) is a huge
nested sum of products of factorials, binomials, Bernoulli numbers and the
coefficients that express derivatives of 1/(e^w - 1) as powers of
1/(e^w - 1), all exact.  The public functions return ``Fraction``s; inside,
the derivative coefficients are ``int`` rows (``_deriv_row``), which
``deriv_coeff`` indexes and the builders downstream and the oracle's
identity check read whole, so they stay in integers too.  The sine-sum
induction and the sigma blocks expand one Bernoulli-weighted power sum,
whose one nonzero weight, r at k^1, ``_bernoulli_cells`` alone knows (its
docstring holds the lemma).

Every table (B_q, rows of derivative coefficients) is a ``functools.cache``
entry keyed by its index and computed from lower indices only, so threads that
build one at once store equal values, the ones a single thread gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .multiplicative import _check_int

__all__ = [
    "binomial",
    "factorial",
    "bernoulli",
    "deriv_coeff",
]


def binomial(n: int, k: int) -> Fraction:
    """C(n, k) as a Fraction; 0 when k < 0 or k > n.

    The out-of-range convention keeps guards out of deeply nested sums.
    """
    _check_int("binomial", "n", n, 0)
    _check_int("binomial", "k", k)
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def factorial(n: int) -> Fraction:
    """n! as a Fraction."""
    _check_int("factorial", "n", n, 0)
    return Fraction(math.factorial(n))


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, B_1 = -1/2 convention.

    Computed from the recurrence sum_{q=0}^{m} C(m+1, q) B_q = 0 (m >= 1),
    solved upward from B_0 = 1.  Odd indices above 1 are zero.  The sign of
    B_1 matters: the mean-square sums pair B_{q} against alternating binomial
    sums that cancel exactly only in this convention.
    """
    _check_int("bernoulli", "n", n, 0)
    return _bernoulli(n)


@cache
def _bernoulli(n: int) -> Fraction:
    """B_n = -sum_{q<n} C(n+1, q) B_q / (n+1), and 0 for odd n > 1.

    Only B_0, B_1 and the even indices below n enter the sum, as integer
    numerators over the lcm of their denominators; they are read in
    ascending order, so recursion stays shallow.
    """
    if n == 0:
        return Fraction(1)
    if n % 2 and n > 1:
        return Fraction(0)
    qs = [q for q in (0, 1, *range(2, n, 2)) if q < n]
    bs = [_bernoulli(q) for q in qs]
    den = math.lcm(*[b.denominator for b in bs])
    total = sum(math.comb(n + 1, q) * b.numerator * (den // b.denominator) for q, b in zip(qs, bs))
    return Fraction(-total, den * (n + 1))


def deriv_coeff(q: int, j: int) -> Fraction:
    """Coefficient of (e^w - 1)^(-j) in the q-th derivative of 1/(e^w - 1).

    Defined for 1 <= j <= q + 1 as

        sum_{r=0}^{j-1} (-1)^(r+q) C(j-1, r) (j-r)^q,

    which is always an integer.  These coefficients turn power-weighted
    exponential sums over a full period into finite combinations of powers
    of 1/(e^(2*pi*i*m/k) - 1).
    """
    _check_int("deriv_coeff", "q", q, 0)
    _check_int("deriv_coeff", "j", j, 1)
    if j > q + 1:
        raise ValueError(f"deriv_coeff: j must be in [1, {q + 1}], got {j}")
    return Fraction(_deriv_row(q)[j - 1])


@cache
def _deriv_row(q: int) -> tuple[int, ...]:
    """deriv_coeff(q, j) for j = 1..q+1 as ints, from row q - 1, lower rows built first.

    As d/dw (e^w - 1)^(-j) = -j (e^w - 1)^(-j) - j (e^w - 1)^(-j-1),
    A(q+1, j) = -j A(q, j) - (j-1) A(q, j-1), with A = 0 outside
    1 <= j <= q+1: O(1) per entry instead of a j-term sum of q-th powers.
    """
    if q == 0:
        return (1,)
    for p in range(1, q - 1):
        _deriv_row(p)
    row = (0, *_deriv_row(q - 1), 0)  # A(q-1, 0) .. A(q-1, q+1)
    return tuple(-j * row[j] - (j - 1) * row[j - 1] for j in range(1, len(row)))


def _bernoulli_cells(r: int, e: int, scale: int = 1) -> dict[tuple[int, int], int]:
    """The Bernoulli-weighted power sum of rank r as cells {(e, alpha): scale * r * A(r-1, alpha)}.

    Lemma: U = sum_{q <= r} B_q C(r, q) k^q S(r-q), with S(p) = sum_j C(p, j)
    k^j sum_alpha A(p-j, alpha) R(alpha), has one nonzero weight, r at k^1.
    Proof: the term (q, j) lands on k^(q+j), and C(r, q) C(r-q, j) =
    C(r, q+j) C(q+j, q), so the weight of k^e is C(r, e) sum_{q < e} C(e, q)
    B_q, which is [e = 1] by the recurrence that defines B_(e-1) (S(0) is
    empty).  U's reflected form, which puts sum_{a < r-q} (-1)^(r-q-a)
    C(r-q, a) k^(q+a) S(r-q-a) for k^q S(r-q), is (-1)^r U, as C(r-q, a)
    C(r-q-a, j) = C(r-q, e-q) C(e-q, a) signs its weight of k^e by (-1)^(r+e+1).

    The cells are keyed by (k-exponent, order of R), as
    ``sine_sums._expand_laurent`` reads them; e places the weight's k-power.
    """
    return {(e, alpha): scale * r * a for alpha, a in enumerate(_deriv_row(r - 1), 1)}
