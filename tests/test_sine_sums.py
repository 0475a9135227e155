"""Tests for the reciprocal sine power sum engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from meansq.multiplicative import coprime_residues
from meansq.sine_sums import (
    UncancelledPowerError,
    _recursion_laurent,
    recip_power_real_sum,
    sin_sum_exact,
    sin_sum_numeric,
)
from meansq.symbolic import evaluate_jordan

F = Fraction

# The six published expansions of the sums of order 2..12 (exact).
PUBLISHED = {
    0: {1: F(1)},
    2: {2: F(1, 3)},
    4: {4: F(1, 45), 2: F(2, 9)},
    6: {6: F(2, 945), 4: F(1, 45), 2: F(8, 45)},
    8: {8: F(1, 4725), 6: F(8, 2835), 4: F(14, 675), 2: F(16, 105)},
    10: {10: F(2, 93555), 8: F(1, 2835), 6: F(26, 8505), 4: F(164, 8505), 2: F(128, 945)},
    12: {
        12: F(1382, 638512875),
        10: F(4, 93555),
        8: F(31, 70875),
        6: F(556, 178605),
        4: F(3832, 212625),
        2: F(256, 2079),
    },
}


class TestExactExpansions:
    def test_order_zero_counts_residues(self):
        assert sin_sum_exact(0) == {1: F(1)}

    @pytest.mark.parametrize("n", sorted(PUBLISHED))
    def test_published_tables(self, n):
        assert sin_sum_exact(n) == PUBLISHED[n]

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            sin_sum_exact(3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sin_sum_exact(-2)

    def test_positivity(self):
        for n in range(0, 17, 2):
            combo = sin_sum_exact(n)
            assert combo, f"n={n} unexpectedly empty"
            assert all(c > 0 for c in combo.values()), f"n={n}"

    def test_k_powers_cancel(self):
        # every nonzero k-exponent of the induction Laurent must vanish
        for n in range(2, 17, 2):
            laurent, _ = _recursion_laurent(n)
            assert set(laurent) <= {0}, f"n={n}: stray exponents {sorted(set(laurent) - {0})}"

    def test_uncancelled_power_is_caught(self, corrupted_induction):
        n = corrupted_induction
        assert sin_sum_exact(n - 2) == PUBLISHED[n - 2]
        assert sorted(_recursion_laurent(n)[0]) == [0, 2]
        with pytest.raises(UncancelledPowerError, match=r"order 10: k-exponents \[2\]"):
            sin_sum_exact(n)

    def test_returned_copies_are_safe(self):
        a = sin_sum_exact(4)
        with pytest.raises(TypeError):
            a[2] = F(999)
        assert sin_sum_exact(4) == PUBLISHED[4]


class TestNumericAgreement:
    def test_small_closed_values(self):
        with mp.workprec(96):
            assert abs(sin_sum_numeric(2, 3, 96) - F(8, 3)) < mp.mpf(2) ** -80
            assert abs(sin_sum_numeric(2, 4, 96) - 4) < mp.mpf(2) ** -80
            assert sin_sum_numeric(0, 12, 96) == 4

    def test_exact_vs_direct_spot(self):
        for n in (0, 2, 6, 12):
            for k in (3, 11, 25, 50):
                exact = evaluate_jordan(sin_sum_exact(n), k)
                numeric = sin_sum_numeric(n, k, 128)
                with mp.workprec(160):
                    exact_mp = mp.mpf(exact.numerator) / exact.denominator
                    assert abs(numeric - exact_mp) / exact_mp < mp.mpf(1e-30), (n, k)

    @pytest.mark.parametrize("n", [50, 60, 80])
    def test_beyond_golden_orders(self, n):
        # the golden file stops at n = 40
        for k in (7, 30, 64):
            exact = evaluate_jordan(sin_sum_exact(n), k)
            numeric = sin_sum_numeric(n, k, 128)
            with mp.workprec(160):
                exact_mp = mp.mpf(exact.numerator) / exact.denominator
                assert abs(numeric - exact_mp) / exact_mp < mp.mpf(2) ** -100, (n, k)

    def test_guards(self):
        with pytest.raises(ValueError):
            sin_sum_numeric(3, 5)
        with pytest.raises(ValueError):
            sin_sum_numeric(2, 2)
        for bits in (-100, 0, 52):
            with pytest.raises(ValueError, match="precision_bits must be >= 53"):
                sin_sum_numeric(2, 5, bits)


class TestProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10).map(lambda h: 2 * h), st.integers(3, 200))
    def test_exact_matches_numeric(self, n, k):
        exact = evaluate_jordan(sin_sum_exact(n), k)
        numeric = sin_sum_numeric(n, k, 128)
        with mp.workprec(160):
            exact_mp = mp.mpf(exact.numerator) / exact.denominator
            assert abs(numeric - exact_mp) / exact_mp < mp.mpf(2) ** -100, (n, k)


class TestRecipPowerRealSum:
    @pytest.mark.parametrize("n,k", [(1, 5), (2, 4), (3, 7), (4, 9), (5, 8), (6, 12)])
    def test_against_direct_complex_sum(self, n, k):
        # direct sum over coprime m of Re (e^(2*pi*i*m/k) - 1)^(-n)
        combo = recip_power_real_sum(n)
        exact = evaluate_jordan(combo, k)
        with mp.workprec(160):
            direct = mp.fsum(
                ((mp.expjpi(2 * mp.mpf(m) / k) - 1) ** -n).real for m in coprime_residues(k)
            )
            exact_mp = mp.mpf(exact.numerator) / exact.denominator
            assert abs(direct - exact_mp) < mp.mpf(2) ** -120, (n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            recip_power_real_sum(0)
