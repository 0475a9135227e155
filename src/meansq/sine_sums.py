"""Reciprocal sine power sums over coprime residues.

``sin_sum_exact(n)`` produces the exact Jordan-totient combination equal to

    sum_{1 <= m <= k, gcd(m,k)=1} sin(pi*m/k)^(-n)        (n even)

for every k >= 3 at once.  The engine behind it is an inductive identity:
expanding the principal-character L-value at an even integer two ways and
isolating the top sine power expresses the sum of order n through the sums
of smaller even order, Bernoulli numbers and binomial coefficients.

The induction step is a Laurent polynomial in k whose coefficients are
Jordan combinations.  It is built by collecting scalars first and expanding
Jordan combinations last:

* ``_recip_power_real(n)`` is a memoized table {sine order m: scalar} for
  the coprime-sum R(n) of the real part of (e^(2*pi*i*m/k) - 1)^(-n),
  reduced to sine power sums via the explicit Chebyshev representations of
  cos/sin of multiple angles;
* ``_induction_weights(n)`` sums the Bernoulli/binomial scalars of the step
  per k-exponent e, since the bracket they multiply depends on e alone;
* ``_expand_laurent`` collects a {(k-exponent, order of R): scalar} table
  into one {sine order: scalar} table per k-exponent and expands each into
  a Jordan combination once.  The mean-square builders use it too.

The final answer is k-free, so after collecting terms every nonzero k-power
must have an identically zero coefficient.  That cancellation is *checked*
on the expanded combinations, not assumed: if any nonzero power survives,
``UncancelledPowerError`` is raised (it would signal an implementation
error, since the published expansions carry no k).

``recip_power_real_sum(n)`` publishes R(n) as a Jordan combination.

The sine sums and R(n) tables are cached read-only mappings, shared inside
the package; ``sin_sum_exact`` returns a fresh dict.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb

from mpmath import mp

from .exact import bernoulli, deriv_coeff, factorial
from .multiplicative import coprime_residues
from .symbolic import JordanCombo, KLaurent, _frozen, jc_add

__all__ = [
    "UncancelledPowerError",
    "sin_sum_exact",
    "sin_sum_numeric",
    "recip_power_real_sum",
]


class UncancelledPowerError(RuntimeError):
    """A k-power survived a collection that must be k-free."""


# {m: coeff} for sum_m coeff * SIN(m), with SIN(m) the order-m sine power sum.
SineTable = Mapping[int, Fraction]


@cache
def _sin(n: int) -> Mapping[int, Fraction]:
    """The order-n sum, frozen; lower orders are built first, so recursion stays shallow."""
    if n == 0:
        return _frozen({1: Fraction(1)})
    for m in range(2, n, 2):
        _sin(m)
    laurent = _recursion_laurent(n)
    stray = sorted(e for e in laurent if e != 0)
    if stray:
        raise UncancelledPowerError(
            f"sine power sum of order {n}: k-exponents {stray} survived collection"
        )
    return _frozen(laurent.get(0, {}))


@cache
def _recip_power_real(n: int) -> SineTable:
    """Coprime-sum of Re (e^(2*pi*i*m/k) - 1)^(-n) as a table of sine sums.

    Single merged formula for both parities of n: with half = floor(n/2) and
    E = n for even n, 1 for odd n,

        E * sum_c (-1)^(c + ceil(n/2)) (n-c-1)! / (2^(2c+1) c! (2*half-2c)!)
          * sum_d (-1)^d C(half-c, d) * SIN(2*half - 2d)

    The table holds only scalars, so it needs no sine sum to be built first.
    """
    half = n // 2
    scale = Fraction(n if n % 2 == 0 else 1) * (-1) ** ((n + 1) // 2)
    table: dict[int, Fraction] = {}
    for c in range(half + 1):
        coeff_c = (
            scale
            * (-1) ** c
            * factorial(n - c - 1)
            / (Fraction(2) ** (2 * c + 1) * factorial(c) * factorial(2 * half - 2 * c))
        )
        for d in range(half - c + 1):
            m = 2 * half - 2 * d
            table[m] = table.get(m, 0) + coeff_c * (-1) ** d * comb(half - c, d)
    return _frozen({m: v for m, v in table.items() if v})


def _expand(table: SineTable) -> JordanCombo:
    """sum_m table[m] * SIN(m) as a fresh Jordan combination."""
    out: JordanCombo = {}
    for m, coeff in table.items():
        if not coeff:
            continue
        for s, c in _sin(m).items():
            out[s] = out.get(s, 0) + coeff * c
    return {s: c for s, c in out.items() if c}


def _expand_laurent(table: Mapping[tuple[int, int], Fraction | int], exclude: int | None = None) -> KLaurent:
    """sum over (e, n) of table[e, n] * k^e * R(n), R(n) = ``_recip_power_real(n)``.

    The sine sum of order ``exclude`` is left out of every R(n); this is how
    the induction in sin_sum_exact removes the top-order sum it is solving
    for.  The scalars are first collected per (k-exponent, sine order); each
    k-exponent's Jordan combination is then expanded once.
    """
    by_exponent: dict[int, dict[int, Fraction]] = {}
    for (e, n), v in table.items():
        if not v:
            continue
        cell = by_exponent.setdefault(e, {})
        for m, c in _recip_power_real(n).items():
            if m != exclude:
                cell[m] = cell.get(m, 0) + v * c
    out: KLaurent = {}
    for e, cell in by_exponent.items():
        combo = _expand(cell)
        if combo:
            out[e] = combo
    return out


def recip_power_real_sum(n: int) -> JordanCombo:
    """Coprime-sum of Re (e^(2*pi*i*m/k) - 1)^(-n) as a Jordan combination."""
    if n < 1:
        raise ValueError(f"recip_power_real_sum: n must be >= 1, got {n}")
    return _expand(_recip_power_real(n))


def _induction_weights(n: int) -> dict[int, Fraction]:
    """Scalar weight of k^e in the order-n induction step, per exponent e.

    The (q, j) term multiplies k^(q+j-1) by the bracket of p = n - q - j,
    so the bracket depends on e = q + j - 1 alone (p = n - 1 - e) and the
    (q, j) scalars are summed per e before any bracket is formed.  Every
    weight with e >= 1 comes out exactly zero (the Bernoulli recurrence);
    that is the k-power cancellation, and a nonzero one would leave its
    k-power in the expanded Laurent for ``_sin`` to reject.
    """
    pref = (-1) ** (n // 2) * Fraction(2) ** n / factorial(n)
    weights: dict[int, Fraction] = {}
    for q in range(n + 1):
        bq = bernoulli(q)
        if not bq:
            continue
        wq = pref * comb(n, q) * bq
        for j in range(1, n - q + 1):
            e = q + j - 1
            weights[e] = weights.get(e, 0) + wq * comb(n - q, j)
    return weights


def _recursion_laurent(n: int) -> KLaurent:
    """The induction step for order n, before collecting k-powers.

    Exposed (privately) so tests can check that every nonzero k-exponent
    carries an identically zero coefficient.
    """
    table = {
        (e, alpha): w * int(deriv_coeff(n - 1 - e, alpha))
        for e, w in _induction_weights(n).items()
        if w
        for alpha in range(1, n - e + 1)
    }
    laurent = _expand_laurent(table, exclude=n)
    lead = (-1) ** (n // 2 + 1) * Fraction(2) ** n * bernoulli(n) / factorial(n)
    top = jc_add(laurent.get(0, {}), {n: lead})
    if top:
        laurent[0] = top
    else:
        laurent.pop(0, None)
    return laurent


def sin_sum_exact(n: int) -> JordanCombo:
    """Jordan combination of the order-n reciprocal sine sum (n even >= 0).

    The order-0 sum counts coprime residues, i.e. phi(k) = J_1(k).  Higher
    even orders are built bottom-up; the whole table up to n is memoized,
    and each call returns a fresh dict.  Odd n is rejected: every consumer
    here needs even orders only.
    """
    if n < 0:
        raise ValueError(f"sin_sum_exact: n must be >= 0, got {n}")
    if n % 2:
        raise ValueError(f"sin_sum_exact: n must be even, got {n}")
    return _sin(n).copy()


def sin_sum_numeric(n: int, k: int, precision_bits: int = 128):
    """Direct evaluation of sum over coprime m of sin(pi*m/k)^(-n).

    Computed with extended working precision: the summands grow like
    (k/pi)^n, so plain double precision would lose most digits already at
    moderate n.
    """
    if n < 0 or n % 2:
        raise ValueError(f"sin_sum_numeric: n must be even and >= 0, got {n}")
    if k < 3:
        raise ValueError(f"sin_sum_numeric: k must be >= 3, got {k}")
    with mp.workprec(precision_bits + 32):
        total = mp.fsum(mp.sinpi(mp.mpf(m) / k) ** (-n) for m in coprime_residues(k))
    with mp.workprec(precision_bits):
        total = +total
    return total
