"""Exact combinatorial scalars.

Everything downstream (sine power sums, mean-square closed forms) is a huge
nested sum of products of factorials, binomials, Bernoulli numbers and the
coefficients that express derivatives of 1/(e^w - 1) as powers of
1/(e^w - 1), all exact.  The public functions return ``Fraction``s; inside,
the tables are ``int``s over one denominator (``_bernoulli_ints``,
``_deriv_int``), so the builders downstream stay in integers too.  The
sine-sum induction, the power sums and the sigma blocks all expand one
Bernoulli-weighted power sum, with cells from ``_weighted_cells`` and
weights from ``_bernoulli_weights``: W_e = C(r, e) P(e, min(q_max, e - 1)),
reflected (-1)^(r+e+1) W_e, from one cached P(e, m) = sum_{q <= m} C(e, q) B_q.

Every table (B_q, rows of derivative coefficients, P) is a ``functools.cache``
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
    """B_n = -sum_{q<n} C(n+1, q) B_q / (n+1) over the lcm of the earlier denominators, which
    ``_bernoulli_ints`` reads in ascending order, so recursion stays shallow."""
    if n == 0:
        return Fraction(1)
    nums, den = _bernoulli_ints(n - 1)
    return Fraction(-sum(math.comb(n + 1, q) * b for q, b in enumerate(nums)), den * (n + 1))


def _bernoulli_ints(n: int) -> tuple[list[int], int]:
    """B_0..B_n as integer numerators over one denominator, the lcm of theirs."""
    bs = [_bernoulli(q) for q in range(n + 1)]
    den = math.lcm(*[b.denominator for b in bs])
    return [b.numerator * (den // b.denominator) for b in bs], den


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
    return Fraction(_deriv_int(q, j))


def _deriv_int(q: int, j: int) -> int:
    """``deriv_coeff(q, j)`` as an int, for in-range arguments."""
    return _deriv_row(q)[j - 1]


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


@cache
def _bernoulli_partial(e: int, m: int) -> Fraction:
    """P(e, m) = sum_{q <= m} C(e, q) B_q; by the Bernoulli recurrence P(e, e-1) = [e = 1]."""
    nums, den = _bernoulli_ints(m)
    return Fraction(sum(math.comb(e, q) * b for q, b in enumerate(nums)), den)


def _bernoulli_weights(r: int, q_max: int, reflected: bool = False) -> tuple[dict[int, int], int]:
    """Weight W_e of k^e in sum_{q <= q_max} B_q C(r, q) k^q S(r-q), or its reflected form.

    With S(p) = sum_j C(p, j) k^j sum_alpha A(p-j, alpha) R(alpha), the term
    (q, j) lands on k^e, e = q + j, and C(r, q) C(r-q, e-q) = C(r, e) C(e, q),
    so W_e = C(r, e) P(e, min(q_max, e - 1)).  The reflected form puts
    sum_{a < r-q} (-1)^(r-q-a) C(r-q, a) k^(q+a) S(r-q-a) for k^q S(r-q); as
    C(r-q, a) C(r-q-a, j) = C(r-q, e-q) C(e-q, a) and the sum over a < e-q of
    (-1)^(r-q-a) C(e-q, a) is (-1)^(r+e+1), its weights are (-1)^(r+e+1) W_e.
    All are ints over lcm(B_0..B_{q_max} denominators), returned with them;
    most are exactly zero, which the arithmetic finds and nothing here assumes.
    """
    bden = _bernoulli_ints(q_max)[1]
    weights: dict[int, int] = {}
    for e in range(1, r + 1):
        p = _bernoulli_partial(e, min(q_max, e - 1))
        w = math.comb(r, e) * p.numerator * (bden // p.denominator)
        weights[e] = -w if reflected and (r + e) % 2 == 0 else w
    return weights, bden


def _weighted_cells(r: int, weights: dict[int, int], shift: int = 0, scale: int = 1) -> dict[tuple[int, int], int]:
    """Cells {(e + shift, alpha): scale * W_e * A(r-e, alpha)} of the nonzero weights.

    Keyed by (k-exponent, order of R), as ``sine_sums._expand_laurent`` reads them.
    """
    cells: dict[tuple[int, int], int] = {}
    for e, w in weights.items():
        w *= scale
        if w:
            for alpha in range(1, r - e + 2):
                cells[e + shift, alpha] = w * _deriv_int(r - e, alpha)
    return cells
