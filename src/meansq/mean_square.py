"""Builders for the parity-restricted mean-square closed forms.

The mean square of L(r, chi) over characters of matching parity reduces to
nested Bernoulli/binomial sums whose innermost objects are the coprime-residue
sums R(n) of real parts of (e^(2*pi*i*m/k) - 1)^(-n); those are Jordan
combinations (module ``sine_sums``), and the k-powers produced along the way
are tracked exactly in ``KLaurent`` values.

The builders collect scalars first and expand Jordan combinations last.
Below the published values everything is a scalar table keyed by
(k-exponent, order n of R):

* ``_power_sum(p)`` is an integer table (binomials times derivative
  coefficients), and the paired product sum of powers p and q is the
  convolution of two such tables;
* a sigma block is the convolution of two Bernoulli-weighted power sums
  sum_{q < r} B_q C(r, q) k^q S(r-q).  By the lemma in ``exact``, each has
  one nonzero weight, r at k^1, so its table is the integer cells r A(r-1, alpha)
  at k^1, signed (-1)^r in the reflected form, and the convolution multiplies
  only ``int``s and builds no Jordan combination;
* ``sine_sums._published`` turns that integer table into a read-only
  ``KLaurent``, expanding one Jordan combination per k-exponent in integers
  (``sine_sums._expand_laurent``) before forming its ``Fraction``s.

One template, ``_sigma(kind, r)``, builds all six blocks, one cached block
per (kind, rank), with q1, q2 <= r - 1.  The unprimed names take
r = 2h + 1 (odd case), the primed names r = 2h (even case), where the
paper's q1, q2 <= 2h - 2 gives the same block: B_(r-1) = 0 for even r >= 4.
The closed forms read the same blocks.  The kind picks:

* ``single``    (``sigma0`` / ``sigma0_prime``) -- the single-exponential
  block: phi(k)/2 at r = 1 and identically zero above, as its scalar, the
  weight of k^r, is [r = 1].
* ``reflected`` (``sigma1`` / ``sigma1_prime``) -- the block produced by
  reflecting the conjugate exponential sum; ``sigma1(h) = -sigma2(h)`` and
  ``sigma1_prime(h) = sigma2_prime(h)`` exactly, as the final formulas need
  and the tests check.
* ``direct``    (``sigma2`` / ``sigma2_prime``) -- the direct product block.

All builders are pure and memoized with ``functools.cache``.  Every value
handed out is read-only, and each cached getter returns the cached value
itself: a repeated ``sigma2(h)`` or ``mean_square_odd(r)`` returns the same
object.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb

from .exact import _bernoulli_weights, _weighted_cells, bernoulli, factorial
from .multiplicative import _check_int
from .sine_sums import _published
from .symbolic import ClosedForm, KLaurent, _Frozen, evaluate_laurent, kl_shift

__all__ = [
    "exp_product_real",
    "power_sum_real",
    "sigma0",
    "sigma1",
    "sigma2",
    "sigma0_prime",
    "sigma1_prime",
    "sigma2_prime",
    "mean_square_odd",
    "mean_square_even",
    "l_principal_closed_form",
    "realjs_rhs_exact",
]


# ---------------------------------------------------------------------------
# Exponential-sum primitives: tables {(k-exponent, order of R): coeff}
# ---------------------------------------------------------------------------

Table = Mapping[tuple[int, int], int]


def _convolve(a: Table, b: Table, shift: int = 0) -> dict:
    """The table of the product: exponents add (then shift), orders add."""
    out = {}
    for (e1, n1), x in a.items():
        for (e2, n2), y in b.items():
            cell = (e1 + e2 + shift, n1 + n2)
            out[cell] = out.get(cell, 0) + x * y
    return out


@cache
def _power_sum(p: int) -> Table:
    """Coprime-sum of sum_{j=1}^{k-1} j^p e^(2*pi*i*m*j/k) (real by pairing).

    Expanding through the derivative coefficients of 1/(e^w - 1) gives

        sum_{j=1}^{p} sum_{alpha=1}^{p-j+1} C(p,j) A(p-j, alpha) k^j R(alpha)

    with R(n) the reciprocal-power sum from ``sine_sums``; the table maps
    (j, alpha) to the integer C(p,j) A(p-j, alpha).
    """
    return _Frozen(_weighted_cells(p, {j: comb(p, j) for j in range(1, p + 1)}))


@cache
def _exp_product(p: int, q: int) -> Mapping:
    """Coprime-sum of Re[(sum_j j^p e^(2*pi*i*m*j/k)) (sum_s s^q e^(2*pi*i*m*s/k))].

    Taking real parts of the product of the two expansions gives

        sum_{j,s} C(p,j) C(q,s) k^(j+s)
          sum_{alpha,beta} A(p-j, alpha) A(q-s, beta) * R(alpha+beta),

    the integer convolution of the two power-sum tables, expanded once.
    Symmetric in (p, q): the swapped pair shares the value of the sorted one.
    """
    if p > q:
        return _exp_product(q, p)
    return _published(_convolve(_power_sum(p), _power_sum(q)))


def exp_product_real(p: int, q: int) -> KLaurent:
    """The memoized product sum, read-only; (p, q) and (q, p) share one value."""
    _check_int("exp_product_real", "p", p, 1)
    _check_int("exp_product_real", "q", q, 1)
    return _exp_product(p, q)


def power_sum_real(p: int) -> KLaurent:
    _check_int("power_sum_real", "p", p, 1)
    return _published(_power_sum(p))


def realjs_rhs_exact(p: int, q: int, k: int) -> Fraction:
    """Exact value at k of the closed form of the paired double sum."""
    _check_int("realjs_rhs_exact", "p", p, 1)
    _check_int("realjs_rhs_exact", "q", q, 1)
    _check_int("realjs_rhs_exact", "k", k, 3)
    return evaluate_laurent(_exp_product(p, q), k)


# ---------------------------------------------------------------------------
# Sigma blocks: one template for both parities and all three kinds
# ---------------------------------------------------------------------------

@cache
def _sigma(kind: str, r: int) -> Mapping:
    """Sigma block of rank r, expanded into a read-only ``KLaurent``.

    With S(p) the power sum and U = sum_{q <= r-1} B_q C(r, q) k^q S(r-q),
    where a product of two power sums means the paired product sum (table
    convolution, as in ``_exp_product``):

    * ``direct``    -- k^(-2r) U * U;
    * ``reflected`` -- k^(-2r) U * V, V the reflected form of U, its weights
                       signed by (-1)^(r+e+1), so V = (-1)^r U;
    * ``single``    -- -W_r k^(-r) U, W_r U's weight of k^r.

    U's one nonzero weight is r at k^1 (``exact._bernoulli_weights``), so U
    and V are integer tables and the convolution multiplies only ints; the
    scalars are collected per (k-exponent, order of R) and expanded once at
    the end.
    """
    weights = _bernoulli_weights(r)
    if kind == "single":
        table = _weighted_cells(r, weights, shift=-r, scale=-weights.get(r, 0))
    else:
        first = _weighted_cells(r, weights)
        second = first if kind == "direct" else _weighted_cells(r, weights, scale=(-1) ** r)
        table = _convolve(first, second, shift=-2 * r)
    return _published(table)


def sigma2(h: int) -> KLaurent:
    """Direct product block of the odd case, exact in k.

    sum over q1, q2 in [0, 2h] of B_{q1} B_{q2} C(2h+1, q1) C(2h+1, q2)
    k^(q1+q2-4h-2) times the (2h+1-q1, 2h+1-q2) product sum.
    """
    _check_int("sigma2", "h", h, 1)
    return _sigma("direct", 2 * h + 1)


def sigma1(h: int) -> KLaurent:
    """Reflected block of the odd case."""
    _check_int("sigma1", "h", h, 1)
    return _sigma("reflected", 2 * h + 1)


def sigma0(h: int) -> KLaurent:
    """Single-exponential block of the odd case.

    Equals {0: {1: 1/2}} (i.e. phi(k)/2) for h = 0 and the empty Laurent for
    h >= 1: the inner Bernoulli-binomial sum over q2 is exactly zero then.
    """
    _check_int("sigma0", "h", h, 0)
    return _sigma("single", 2 * h + 1)


def sigma2_prime(h: int) -> KLaurent:
    """Direct product block of the even case (q1, q2 stop at 2h - 1; B_(2h-1) = 0)."""
    _check_int("sigma2_prime", "h", h, 2)
    return _sigma("direct", 2 * h)


def sigma1_prime(h: int) -> KLaurent:
    """Reflected block of the even case."""
    _check_int("sigma1_prime", "h", h, 2)
    return _sigma("reflected", 2 * h)


def sigma0_prime(h: int) -> KLaurent:
    """Single-exponential block of the even case; empty for every h >= 2."""
    _check_int("sigma0_prime", "h", h, 2)
    return _sigma("single", 2 * h)


# ---------------------------------------------------------------------------
# Final closed forms
# ---------------------------------------------------------------------------

def mean_square_odd(r: int) -> ClosedForm | tuple[ClosedForm, ClosedForm]:
    """Closed form of the odd-parity mean square of L(r, chi), r odd >= 1.

    For r >= 3 the result is a single form

        -4^(r-1) / (r!)^2 * pi^(2r) * phi(k) * k^(-2) * sigma2((r-1)/2).

    For r = 1 the single-exponential block no longer vanishes and the value
    picks up pi^2 phi(k)^2 / (4 k^2); a pair of forms is returned (main
    form, correction), to be summed.  The correction's phi^2 is carried as
    phi_exp = 1 times an explicit J_1 so that ClosedForm needs no phi^2
    field.  Every call with the same r returns the same immutable object.
    """
    _check_int("mean_square_odd", "r", r, 1)
    if r % 2 == 0:
        raise ValueError(f"mean_square_odd: r must be odd and >= 1, got {r}")
    return _mean_square(r)


def mean_square_even(r: int) -> ClosedForm:
    """Closed form of the even-parity mean square of L(r, chi), r even >= 4.

    2^(2r-2) / (r!)^2 * pi^(2r) * phi(k) * k^(-2) times the direct product
    block.  r = 2 is rejected: the construction needs r = 2h with h >= 2.
    """
    _check_int("mean_square_even", "r", r, 4)
    if r % 2:
        raise ValueError(
            f"mean_square_even: r must be even and >= 4 (r = 2h with h >= 2), got {r}"
        )
    return _mean_square(r)


@cache
def _mean_square(r: int) -> ClosedForm | tuple[ClosedForm, ClosedForm]:
    """Both parities: (-1)^r 4^(r-1) / (r!)^2 * pi^(2r) * phi(k) * k^(-2) times
    the direct block of rank r; r = 1 adds the correction."""
    block = _sigma("direct", r)
    scalar = (-1) ** r * Fraction(2) ** (2 * r - 2) / (factorial(r) ** 2)
    main_form = ClosedForm(scalar=scalar, pi_exp=2 * r, phi_exp=1, body=kl_shift(block, -2))
    if r > 1:
        return main_form
    # At r = 1 the single-exponential block contributes |C|^2 * phi(k)/2 *
    # sigma0(0) = pi^2 phi(k)^2 / (4 k^2); the squared normalizing constant
    # is pi^2/k^2 here, leaving a bare 1/2 for the phi(k)/2 factor.
    correction = ClosedForm(
        scalar=Fraction(1, 2),
        pi_exp=2,
        phi_exp=1,
        body=kl_shift(_sigma("single", 1), -2),
    )
    return main_form, correction


def l_principal_closed_form(r: int) -> ClosedForm:
    """L(r, chi_0) = zeta(r) J_r(k) / k^r for even r, in Bernoulli form.

    zeta(r) = (-1)^(r/2+1) (2*pi)^r B_r / (2 r!), so the form is
    scalar = (-1)^(r/2+1) 2^r B_r / (2 r!), pi_exp = r, body = k^(-r) J_r.
    """
    _check_int("l_principal_closed_form", "r", r, 2)
    if r % 2:
        raise ValueError(f"l_principal_closed_form: r must be even and >= 2, got {r}")
    scalar = (-1) ** (r // 2 + 1) * Fraction(2) ** r * bernoulli(r) / (2 * factorial(r))
    return ClosedForm(scalar=scalar, pi_exp=r, phi_exp=0, body={-r: {r: Fraction(1)}})
