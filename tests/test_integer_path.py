"""The integer scalar tables against their plain-``Fraction`` definitions.

The builders keep every scalar table below the published values as integer
numerators over one denominator.  The reference functions here are the
same sums written directly in ``Fraction``s, one normalizing operation per
step; each integer table, divided by its denominator, must equal them
exactly.  The derivative coefficients, filled row by row from a
recurrence, must equal their defining sum of q-th powers.
"""

import math
from fractions import Fraction
from math import comb

import pytest

from meansq import mean_square, sine_sums, symbolic
from meansq.exact import _bernoulli_weights, _deriv_row, _weighted_cells, bernoulli, factorial
from meansq.mean_square import _power_sum
from meansq.sine_sums import _recip_power_real


def reference_deriv_coeff(q, j):
    return sum((-1) ** (r + q) * comb(j - 1, r) * (j - r) ** q for r in range(j))


def reference_recip_power_real(n):
    """R(n) by the Chebyshev representations of cos/sin of multiple angles, split on n's parity."""
    half = n // 2
    scale = Fraction(n if n % 2 == 0 else 1) * (-1) ** ((n + 1) // 2)
    table = {}
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
    return {m: v for m, v in table.items() if v}


def reference_induction_weights(n):
    pref = (-1) ** (n // 2) * Fraction(2) ** n / factorial(n)
    weights = {}
    for q in range(n + 1):
        bq = bernoulli(q)
        if not bq:
            continue
        wq = pref * comb(n, q) * bq
        for j in range(1, n - q + 1):
            e = q + j - 1
            weights[e] = weights.get(e, 0) + wq * comb(n - q, j)
    return weights


def reference_bernoulli_weights(r, q_max, reflected):
    """The weights summed term by term over (q, a, j), e = q + a + j."""
    weights = {}
    for q in range(q_max + 1):
        b = bernoulli(q)
        if not b:
            continue
        w = b * comb(r, q)
        layers = [(a, (-1) ** (r - q - a) * comb(r - q, a) * w) for a in range(r - q)] if reflected else [(0, w)]
        for a, wa in layers:
            p = r - q - a
            for j in range(1, p + 1):
                weights[q + a + j] = weights.get(q + a + j, 0) + wa * comb(p, j)
    return weights


def reference_bernoulli_sum(r, q_max, reflected):
    out = {}
    for q in range(q_max + 1):
        b = bernoulli(q)
        if not b:
            continue
        w = b * comb(r, q)
        if reflected:
            terms = [(r - q - a, (-1) ** (r - q - a) * comb(r - q, a), q + a) for a in range(r - q)]
        else:
            terms = [(r - q, 1, q)]
        for p, sign, shift in terms:
            for (j, n), v in _power_sum(p).items():
                cell = (j + shift, n)
                out[cell] = out.get(cell, 0) + sign * w * v
    return out


def over(table, den):
    """An integer table divided by its denominator, zero entries dropped."""
    return {key: Fraction(v, den) for key, v in table.items() if v}


def nonzero(table):
    return {key: v for key, v in table.items() if v}


def test_bernoulli_numerators_share_one_denominator():
    # von Staudt-Clausen: the lcm of the denominators of B_0..B_60 is the
    # product of the primes p with p - 1 <= 60
    den = math.lcm(*[bernoulli(q).denominator for q in range(61)])
    assert den == math.prod(p for p in range(2, 62) if all(p % d for d in range(2, p)))


def test_deriv_coeff_rows_match_the_sum_definition():
    for q in range(61):
        assert list(_deriv_row(q)) == [reference_deriv_coeff(q, j) for j in range(1, q + 2)], q


@pytest.mark.parametrize("n", range(1, 161))
def test_recip_power_real_table(n):
    # the binomial rule against the Chebyshev formula: the same values over the
    # lcm of their denominators, highest sine order first, as published combos
    # inherit that order
    table, den = _recip_power_real(n)
    want = reference_recip_power_real(n)
    assert all(type(v) is int for v in table.values())
    assert list(over(table, den).items()) == list(want.items())
    assert den == math.lcm(*[c.denominator for c in want.values()])
    assert list(table) == sorted(table, reverse=True)


@pytest.mark.parametrize("n", range(2, 61, 2))
def test_induction_weights(n):
    # the induction scales the Bernoulli weights of rank n by (-1)^(n/2) 2^n / n!
    # and shifts them to k^(e-1)
    weights = _bernoulli_weights(n)
    assert all(type(v) is int for v in weights.values())
    shifted = {e - 1: (-1) ** (n // 2) * 2**n * w for e, w in weights.items()}
    assert over(shifted, factorial(n)) == nonzero(reference_induction_weights(n))


@pytest.mark.parametrize("r", range(1, 41))
def test_bernoulli_weights_match_the_term_sum(r):
    # the closed weights at each q_max a builder reads: C(r, e) at q_max = 0 (the
    # power sums), r at k^1 at q_max = r - 1 (the sigma blocks) and at q_max = r
    # (the induction); reflected, each is signed (-1)^(r+e+1).  The cells of
    # q_max = 0 are checked here, those of q_max = r - 1 by test_bernoulli_sum
    weights = _bernoulli_weights(r)
    assert all(type(v) is int for v in weights.values())
    power = {e: comb(r, e) for e in range(1, r + 1)}
    assert _power_sum(r) == _weighted_cells(r, power)
    for q_max, closed in [(0, power), (r - 1, weights), (r, weights)]:
        for reflected in (False, True):
            want = {e: (-1) ** (r + e + 1) * w if reflected else w for e, w in closed.items()}
            assert nonzero(reference_bernoulli_weights(r, q_max, reflected)) == want, (q_max, reflected)
            if q_max == 0:
                assert _weighted_cells(r, want) == nonzero(reference_bernoulli_sum(r, 0, reflected)), reflected


@pytest.mark.parametrize("r", [*range(1, 22, 2), *range(4, 21, 2)])
def test_bernoulli_sum(r):
    # the sigma blocks' tables, q_max = r - 1 for both parities: U's cells, and
    # the reflected form's, U's signed (-1)^r
    weights = _bernoulli_weights(r)
    for reflected in (False, True):
        table = _weighted_cells(r, weights, scale=(-1) ** r if reflected else 1)
        assert all(type(v) is int for v in table.values())
        assert table == nonzero(reference_bernoulli_sum(r, r - 1, reflected)), reflected


def test_built_tables_hold_no_zero_cell(monkeypatch):
    # every table fed to the convolution and the Laurent expansion keeps only
    # the cells of nonzero weights: at r = 61 all but 61 of 1891 would be zero
    fed = []

    def convolve(a, b, shift=0):
        fed.extend([a, b])
        return {}

    def expand(table, *args, **kwargs):
        fed.append(table)
        return {}, 1

    monkeypatch.setattr(mean_square, "_convolve", convolve)
    monkeypatch.setattr(sine_sums, "_expand_laurent", expand)
    for r in range(3, 62):
        fed.append(_power_sum.__wrapped__(r))
        for kind in ("single", "reflected", "direct"):
            mean_square._sigma.__wrapped__(kind, r)
        if r % 2 == 0:
            sine_sums._recursion_laurent(r)
    assert len(fed) == 59 * 8 + 29  # per r: power sum, 1 + 3 + 3 sigma tables, induction at even r
    assert all(v for table in fed for v in table.values())


def reference_expand_laurent(table, den=1, exclude=None):
    """The Laurent expansion by the per-call rule: each sine sum read again from its ``Fraction``s.

    The R(n) numerators are collected per (k-exponent, sine order) as the
    builder collects them; then, on every call, each sine sum read is turned
    into integers over the lcm of every denominator of every sum read, not
    taken from the row of the sum's plan.  Like the builder's, it returns
    integer numerators per (k-exponent, Jordan index) and their denominator.
    """
    recip = {n: _recip_power_real(n) for _, n in table}
    rden = math.lcm(*[d for _, d in recip.values()])
    by_exponent = {}
    for (e, n), v in table.items():
        sines, d = recip[n]
        cell = by_exponent.setdefault(e, {})
        for m, c in sines.items():
            if m != exclude:
                cell[m] = cell.get(m, 0) + v * (rden // d) * c
    orders = {m for cell in by_exponent.values() for m, x in cell.items() if x}
    sums = {m: sine_sums.sin_sum_exact(m) for m in orders}
    sden = math.lcm(*[c.denominator for combo in sums.values() for c in combo.values()])
    sin_ints = {m: [(s, c.numerator * (sden // c.denominator)) for s, c in combo.items()] for m, combo in sums.items()}
    out = {}
    for e, cell in by_exponent.items():
        acc = {}
        for m, x in cell.items():
            if x:
                for s, c in sin_ints[m]:
                    acc[s] = acc.get(s, 0) + x * c
        row = {s: v for s, v in acc.items() if v}
        if row:
            out[e] = row
    return out, den * rden * sden


def in_order(laurent):
    """A Laurent table as nested lists, so that equality also checks the key order."""
    return [(e, list(combo.items())) for e, combo in laurent.items()]


@pytest.fixture
def reference_expansion(monkeypatch):
    """Call a builder with every Laurent expansion done by the per-call rule."""

    def call(builder, *args):
        with monkeypatch.context() as patch:
            patch.setattr(sine_sums, "_expand_laurent", reference_expand_laurent)
            return builder(*args)

    return call


def test_sine_rows_match_the_per_call_rule(reference_expansion):
    # the cached rows give the values, and the key order, of reading every
    # sine sum's Fractions again on each call; every sum read below is built
    # first, by the cached rows, so that no sum is built by the reference
    sine_sums.sin_sum_exact(60)
    for n in range(1, 41):
        want = reference_expansion(sine_sums.recip_power_real_sum, n)
        assert list(sine_sums.recip_power_real_sum(n).items()) == list(want.items()), n
    for p in range(1, 9):
        for q in range(1, 9):
            want = reference_expansion(mean_square._exp_product.__wrapped__, min(p, q), max(p, q))
            assert in_order(mean_square.exp_product_real(p, q)) == in_order(want), (p, q)
    for r in range(1, 22):
        for kind in ("single", "reflected", "direct"):
            want = reference_expansion(mean_square._sigma.__wrapped__, kind, r)
            assert in_order(mean_square._sigma(kind, r)) == in_order(want), (kind, r)
    for n in range(2, 61, 2):
        cells, den = reference_expansion(sine_sums._recursion_laurent, n)
        assert list(cells) == [0], n
        want = [(s, Fraction(c, den)) for s, c in cells[0].items()]
        assert list(sine_sums.sin_sum_exact(n).items()) == want, n


def test_expansion_makes_no_fraction(monkeypatch):
    # the Laurent expansion and the induction step stay in integers: only the
    # published values, built before the patch by symbolic._fractions, are
    # Fractions; sine_sums imports no Fraction, but the name is set there too,
    # so that one imported later is refused as well
    sine_sums.sin_sum_exact(40)
    mean_square.exp_product_real(5, 6)

    def refuse(*args):
        raise AssertionError(f"Fraction{args} made in the expansion")

    monkeypatch.setattr(sine_sums, "Fraction", refuse, raising=False)
    monkeypatch.setattr(symbolic, "Fraction", refuse)
    expansions = [sine_sums._recursion_laurent(n) for n in range(2, 41, 2)]
    expansions.append(sine_sums._expand_laurent(mean_square._convolve(_power_sum(5), _power_sum(6))))
    for cells, den in expansions:
        assert type(den) is int
        assert all(type(c) is int and c for row in cells.values() for c in row.values())
