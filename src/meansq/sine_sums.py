"""Reciprocal sine power sums over coprime residues.

``sin_sum_exact(n)`` produces the exact Jordan-totient combination equal to

    sum_{1 <= m <= k, gcd(m,k)=1} sin(pi*m/k)^(-n)        (n even)

for every k >= 3 at once.  The engine behind it is an inductive identity:
expanding the principal-character L-value at an even integer two ways and
isolating the top sine power expresses the sum of order n through the sums
of smaller even order, Bernoulli numbers and binomial coefficients.

The induction step is a Laurent polynomial in k whose coefficients are
Jordan combinations.  It is built by collecting scalars first and expanding
Jordan combinations last, and every scalar table below the published values
is a table of Python ``int``s over one common denominator, so the nested
Bernoulli/binomial sums never normalize a fraction:

* ``_recip_power_real(n)`` is a memoized integer table {sine order m:
  numerator} over one power of 2 (a divisor of 2^n) for the coprime-sum
  R(n) of the real part of (e^(2*pi*i*m/k) - 1)^(-n), reduced to sine
  power sums by 1/(e^(it) - 1) = -(1 + i cot(t/2))/2 and cot^2 = csc^2 - 1:
  binomials of n and one Taylor shift, for both parities;
* ``_recursion_laurent(n)`` expands the step's Bernoulli-weighted power sum,
  whose one nonzero weight is n at k^1 (``exact._bernoulli_weights``), into
  integer cells over n! times B_n's denominator, which its J_n term needs;
* ``_expand_laurent`` collects a {(k-exponent, order of R): numerator}
  table into one integer {sine order: numerator} table per k-exponent and
  multiply-adds it over the rows of the sine sums' plans, into integers per
  (k-exponent, Jordan index) over one denominator.  ``_published``, which
  the mean-square builders and ``recip_power_real_sum`` use too, makes their
  read-only ``Fraction`` view with ``symbolic._fractions``.

The final answer is k-free, so after collecting terms every nonzero k-power
must have an identically zero coefficient.  That cancellation is *checked*
on the expanded combinations, not assumed: if any nonzero power survives,
``UncancelledPowerError`` is raised (it would signal an implementation
error, since the published expansions carry no k).

``recip_power_real_sum(n)`` publishes R(n) as a Jordan combination.

The sine sums and R(n) tables are cached read-only dicts, and ``sin_sum_exact``
returns the cached sum itself.  Each sum carries its plan, whose integer row
``_expand_laurent`` reads, and ``evaluate_jordan`` the whole plan.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from math import comb, factorial, gcd, lcm

from mpmath import mp

from .exact import _bernoulli_weights, _weighted_cells, bernoulli
from .multiplicative import _check_int, coprime_residues
from .symbolic import JordanCombo, KLaurent, _Frozen, _fractions, _int_plan

__all__ = [
    "UncancelledPowerError",
    "sin_sum_exact",
    "sin_sum_numeric",
    "recip_power_real_sum",
]


class UncancelledPowerError(RuntimeError):
    """A k-power survived a collection that must be k-free."""


@cache
def _sin(n: int) -> _Frozen:
    """The order-n sum, frozen, carrying the plan of its expansion's integers divided by their
    gcd with the denominator, which leaves the lcm of its denominators.  Lower orders are built
    first, so recursion stays shallow.
    """
    if n == 0:
        row, den = {1: 1}, 1
    else:
        for m in range(2, n, 2):
            _sin(m)
        cells, den = _recursion_laurent(n)
        stray = sorted(e for e in cells if e != 0)
        if stray:
            raise UncancelledPowerError(
                f"sine power sum of order {n}: k-exponents {stray} survived collection"
            )
        row = cells.get(0, {})
    g = gcd(den, *row.values())
    den //= g
    row = {s: c // g for s, c in row.items()}
    combo = _fractions({0: row}, den)[0]
    combo._plan = _int_plan({0: row}, 1, den)
    return combo


@cache
def _recip_power_real(n: int) -> tuple[Mapping[int, int], int]:
    """Coprime-sum of Re (e^(2*pi*i*m/k) - 1)^(-n) as (sine table, denominator).

    The table maps m to the numerator of the coefficient of SIN(m), the
    order-m sine power sum, highest order first.  With 1/(e^(it) - 1) =
    -(1 + i cot(t/2))/2, the real part is (-1)^n / 2^n times
    sum_j (-1)^j C(n, 2j) u^j, u = cot^2(t/2) = csc^2(t/2) - 1; a Taylor
    shift from u to csc^2 gives integer numerators over 2^n, reduced by
    their common gcd.  It holds only scalars, so it needs no sine sum to be
    built first.
    """
    b = [(-1) ** (n + j) * comb(n, 2 * j) for j in range(n // 2 + 1)]
    for t in range(len(b) - 1):
        for j in range(len(b) - 2, t - 1, -1):
            b[j] -= b[j + 1]
    g = gcd(2**n, *b)
    return _Frozen({2 * i: b[i] // g for i in reversed(range(len(b))) if b[i]}), 2**n // g


def _expand_laurent(table: Mapping[tuple[int, int], int], den: int = 1, exclude: int | None = None) -> tuple[dict, int]:
    """sum over (e, n) of table[e, n]/den * k^e * R(n), R(n) = ``_recip_power_real(n)``.

    Returns ({k-exponent: {Jordan index: numerator}}, denominator), with no
    zero numerator and no empty exponent.  The sine sum of order ``exclude``
    is left out of every R(n); this is how the induction in sin_sum_exact
    removes the top-order sum it is solving for.  The integer numerators are
    first collected per (k-exponent, sine order) over the lcm of the R(n)
    denominators, then scaled to the lcm of the sine sums' plan denominators
    and multiply-added over each plan's row.
    """
    recip = {n: _recip_power_real(n) for _, n in table}
    rden = lcm(*[d for _, d in recip.values()])
    by_exponent: dict[int, dict[int, int]] = {}
    for (e, n), v in table.items():
        sines, d = recip[n]
        v *= rden // d
        cell = by_exponent.setdefault(e, {})
        for m, c in sines.items():
            if m != exclude:
                cell[m] = cell.get(m, 0) + v * c
    plans = {m: _sin(m)._plan for cell in by_exponent.values() for m, x in cell.items() if x}
    sden = lcm(*[plan[1] for plan in plans.values()])
    out: dict[int, dict[int, int]] = {}
    for e, cell in by_exponent.items():
        acc: dict[int, int] = {}
        for m, x in cell.items():
            if x:
                _, d, _, _, ((_, row),), _ = plans[m]
                x *= sden // d
                for s, c in row:
                    acc[s] = acc.get(s, 0) + x * c
        row = {s: v for s, v in acc.items() if v}
        if row:
            out[e] = row
    return out, den * rden * sden


def _published(table: Mapping[tuple[int, int], int]) -> KLaurent:
    """The expansion of ``table``, read-only, one ``Fraction`` per nonzero coefficient."""
    return _fractions(*_expand_laurent(table))


def recip_power_real_sum(n: int) -> JordanCombo:
    """Coprime-sum of Re (e^(2*pi*i*m/k) - 1)^(-n) as a Jordan combination."""
    _check_int("recip_power_real_sum", "n", n, 1)
    return _published({(0, n): 1}).get(0, _Frozen())


def _recursion_laurent(n: int) -> tuple[dict, int]:
    """The induction step for order n, before collecting k-powers, as ``_expand_laurent`` returns it.

    (-1)^(n/2) 2^n / n! k^(-1) times the Bernoulli-weighted power sum of rank
    n, the order-n sine sum moved out of every R into one J_n term.  Its one
    nonzero weight, n at k^1, lands on k^0; a weight anywhere else would leave
    its k-power for ``_sin`` to reject, which tests check through here.
    """
    b = bernoulli(n)  # its denominator carried only for the J_n term
    table = _weighted_cells(n, _bernoulli_weights(n), shift=-1, scale=(-1) ** (n // 2) * 2**n * b.denominator)
    cells, total = _expand_laurent(table, factorial(n) * b.denominator, exclude=n)
    # the J_n term (-1)^(n/2+1) 2^n B_n / n!, last at k^0; total is a multiple of n! B_n's denominator
    cells.setdefault(0, {})[n] = (-1) ** (n // 2 + 1) * 2**n * b.numerator * (total // factorial(n) // b.denominator)
    return cells, total


def sin_sum_exact(n: int) -> JordanCombo:
    """Jordan combination of the order-n reciprocal sine sum (n even >= 0).

    The order-0 sum counts coprime residues, i.e. phi(k) = J_1(k).  Higher
    even orders are built bottom-up; the whole table up to n is memoized,
    and each call returns the cached read-only dict.  Odd n is rejected:
    every consumer here needs even orders only.
    """
    _check_int("sin_sum_exact", "n", n, 0)
    if n % 2:
        raise ValueError(f"sin_sum_exact: n must be even, got {n}")
    return _sin(n)


def sin_sum_numeric(n: int, k: int, precision_bits: int = 128):
    """Direct evaluation of sum over coprime m of sin(pi*m/k)^(-n).

    Computed with extended working precision: the summands grow like
    (k/pi)^n, so plain double precision would lose most digits already at
    moderate n.
    """
    _check_int("sin_sum_numeric", "n", n, 0)
    if n % 2:
        raise ValueError(f"sin_sum_numeric: n must be even and >= 0, got {n}")
    _check_int("sin_sum_numeric", "k", k, 3)
    _check_int("sin_sum_numeric", "precision_bits", precision_bits, 53)
    with mp.workprec(precision_bits + 32):
        total = mp.fsum(mp.sinpi(mp.mpf(m) / k) ** (-n) for m in coprime_residues(k))
    with mp.workprec(precision_bits):
        total = +total
    return total
