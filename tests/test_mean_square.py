"""Tests for the sigma blocks and the final closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from combo_algebra import kl_add
from meansq import mean_square
from meansq.mean_square import (
    exp_product_real,
    l_principal_closed_form,
    mean_square_even,
    mean_square_odd,
    power_sum_real,
    realjs_rhs_exact,
    sigma0,
    sigma0_prime,
    sigma1,
    sigma1_prime,
    sigma2,
    sigma2_prime,
)
from meansq.oracle import exp_sum_direct
from meansq.symbolic import ClosedForm, evaluate_closed_form, evaluate_laurent, kl_shift, parse_closed_form, render

F = Fraction


class TestSigmaBlocks:
    def test_sigma2_h2_golden(self):
        # -5/(16632 k^8) * (J_10 - 22 J_4 - 231 J_2)
        assert sigma2(2) == {-8: {10: F(-5, 16632), 4: F(5, 756), 2: F(5, 72)}}

    def test_sigma1_h2_is_negation(self):
        assert sigma1(2) == {-8: {10: F(5, 16632), 4: F(-5, 756), 2: F(-5, 72)}}

    def test_odd_cancellation(self):
        for h in (1, 2, 3):
            assert kl_add(sigma1(h), sigma2(h)) == {}, f"h={h}"

    def test_even_equality(self):
        for h in (2, 3):
            assert sigma1_prime(h) == sigma2_prime(h), f"h={h}"

    def test_sigma2_prime_h3_golden(self):
        expected = {
            -10: {
                12: F(691, 2522520),
                6: F(2860, 2522520),
                4: F(63063, 2522520),
                2: F(573300, 2522520),
            }
        }
        assert sigma2_prime(3) == expected

    def test_single_k_exponent(self):
        # observed collection onto one k-power; record the exponent
        for h, exponent in ((1, -4), (2, -8), (3, -12), (4, -16)):
            block = sigma2(h)
            assert list(block) == [exponent], f"h={h}: exponents {sorted(block)}"

    def test_sigma0_values(self):
        assert sigma0(0) == {0: {1: F(1, 2)}}
        for h in (1, 2, 3):
            assert sigma0(h) == {}, f"h={h}"

    def test_sigma0_prime_vanishes(self):
        for h in (2, 3, 4):
            assert sigma0_prime(h) == {}, f"h={h}"

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            sigma2(0)
        with pytest.raises(ValueError):
            sigma1(0)
        with pytest.raises(ValueError):
            sigma2_prime(1)
        with pytest.raises(ValueError):
            sigma1_prime(1)
        with pytest.raises(ValueError):
            sigma0(-1)
        with pytest.raises(ValueError):
            sigma0_prime(1)

    def test_returned_copies_are_safe(self):
        # the cached block is handed out read-only: a write raises and the cache is unchanged
        block = sigma2(2)
        with pytest.raises(TypeError):
            block[-8][10] = F(1)
        assert sigma2(2) == {-8: {10: F(-5, 16632), 4: F(5, 756), 2: F(5, 72)}}


class TestFinalForms:
    def test_r5_golden(self):
        expected = ClosedForm(
            scalar=F(1, 187110),
            pi_exp=10,
            phi_exp=1,
            body={-10: {10: F(1), 4: F(-22), 2: F(-231)}},
        )
        assert mean_square_odd(5) == expected

    def test_r6_golden(self):
        expected = ClosedForm(
            scalar=F(1, 1277025750),
            pi_exp=12,
            phi_exp=1,
            body={-12: {12: F(691), 6: F(2860), 4: F(63063), 2: F(573300)}},
        )
        assert mean_square_even(6) == expected

    @pytest.mark.parametrize("r", range(4, 41, 2))
    def test_even_form_is_built_on_sigma2_prime(self, r):
        # both read the rank-r direct block, whose Bernoulli sum runs to q = r - 1;
        # the paper's even case stops at q = r - 2, and the term between carries
        # B_(r-1) = 0
        scalar = (-1) ** r * F(4) ** (r - 1) / F(math.factorial(r)) ** 2
        expected = ClosedForm(scalar=scalar, pi_exp=2 * r, phi_exp=1, body=kl_shift(sigma2_prime(r // 2), -2))
        assert mean_square_even(r) == expected

    @pytest.mark.parametrize("h", [2, 3, 10])
    def test_even_form_and_sigma2_prime_share_one_block(self, h):
        mean_square._sigma.cache_clear()
        mean_square._mean_square.cache_clear()
        sigma2_prime(h)
        mean_square_even(2 * h)
        assert mean_square._sigma.cache_info().misses == 1

    def test_r1_pair(self):
        main_form, correction = mean_square_odd(1)
        assert correction == ClosedForm(scalar=F(1, 4), pi_exp=2, phi_exp=1, body={-2: {1: F(1)}})
        # k = 3: the only odd character has |L(1, chi)|^2 = pi^2/27
        # k = 4: the only odd character has |L(1, chi)|^2 = pi^2/16
        for k, expected_factor in ((3, F(1, 27)), (4, F(1, 16))):
            with mp.workprec(128):
                total = evaluate_closed_form(main_form, k, 128) + evaluate_closed_form(correction, k, 128)
                target = mp.pi**2 * expected_factor.numerator / expected_factor.denominator
                assert abs(total - target) / target < mp.mpf(2) ** -110, k

    def test_forms_are_memoized(self):
        for r in (1, 5):
            assert mean_square_odd(r) is mean_square_odd(r), r
        assert mean_square_even(6) is mean_square_even(6)

    def test_forms_are_immutable(self):
        form = mean_square_odd(5)
        again = parse_closed_form(render(form, "json"))
        assert again == form and hash(again) == hash(form)
        with pytest.raises(TypeError):
            form.body[-2] = {}
        with pytest.raises(TypeError):
            form.body[-10][10] = F(1)
        with pytest.raises(TypeError):
            form.body.clear()
        assert mean_square_odd(5).body == {-10: {10: F(1), 4: F(-22), 2: F(-231)}}

    def test_parity_guards(self):
        with pytest.raises(ValueError):
            mean_square_odd(4)
        with pytest.raises(ValueError):
            mean_square_odd(-3)
        with pytest.raises(ValueError):
            mean_square_even(5)
        with pytest.raises(ValueError):
            mean_square_even(2)

    def test_outputs_strictly_positive(self):
        # sums of squared moduli must evaluate positive everywhere
        for r in (3, 5, 7):
            form = mean_square_odd(r)
            for k in range(3, 21):
                assert evaluate_closed_form(form, k, 96) > 0, (r, k)
        for r in (4, 6):
            form = mean_square_even(r)
            for k in range(3, 21):
                assert evaluate_closed_form(form, k, 96) > 0, (r, k)


class TestPrincipalCharacter:
    def test_r2(self):
        assert l_principal_closed_form(2) == ClosedForm(
            scalar=F(1, 6), pi_exp=2, phi_exp=0, body={-2: {2: F(1)}}
        )

    def test_r4(self):
        assert l_principal_closed_form(4) == ClosedForm(
            scalar=F(1, 90), pi_exp=4, phi_exp=0, body={-4: {4: F(1)}}
        )

    def test_euler_value_at_k4(self):
        value = evaluate_closed_form(l_principal_closed_form(2), 4, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**2 / 8) < mp.mpf(2) ** -120

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            l_principal_closed_form(3)


class TestRealJs:
    def test_symmetry(self):
        assert realjs_rhs_exact(2, 4, 7) == realjs_rhs_exact(4, 2, 7)
        assert exp_product_real(2, 4) == exp_product_real(4, 2)

    @pytest.mark.parametrize("p,q,k", [(1, 1, 3), (2, 3, 5), (2, 2, 4), (4, 4, 9)])
    def test_against_direct_sum(self, p, q, k):
        exact = realjs_rhs_exact(p, q, k)
        direct = exp_sum_direct(p, q, k, precision_bits=160)
        with mp.workprec(160):
            exact_mp = mp.mpf(exact.numerator) / exact.denominator
            scale = max(abs(direct.real), mp.mpf(1))
            assert abs(exact_mp - direct.real) / scale < mp.mpf(1e-30), (p, q, k)
            # the full coprime-paired sum is real
            assert abs(direct.imag) / scale < mp.mpf(1e-30)

    def test_power_sum_real_spot(self):
        # sum over coprime m of sum_j j^p e(mj/k), p = 2, k = 5, directly
        laurent = power_sum_real(2)
        exact = evaluate_laurent(laurent, 5)
        with mp.workprec(160):
            direct = mp.fsum(
                mp.fsum(j**2 * mp.expjpi(2 * mp.mpf(m * j) / 5) for j in range(1, 5))
                for m in (1, 2, 3, 4)
            )
            exact_mp = mp.mpf(exact.numerator) / exact.denominator
            assert abs(direct - exact_mp) < mp.mpf(2) ** -130

    def test_returned_copies_are_safe(self):
        product = exp_product_real(2, 3)
        pristine = {e: dict(combo) for e, combo in product.items()}
        value = realjs_rhs_exact(2, 3, 7)
        for combo in product.values():
            with pytest.raises(TypeError):
                combo.clear()
        with pytest.raises(TypeError):
            product.clear()
        assert exp_product_real(2, 3) == pristine and exp_product_real(3, 2) == pristine
        assert realjs_rhs_exact(2, 3, 7) == value == evaluate_laurent(pristine, 7)

    def test_guards(self):
        with pytest.raises(ValueError):
            realjs_rhs_exact(0, 1, 5)
        with pytest.raises(ValueError):
            realjs_rhs_exact(1, 1, 2)


# ---------------------------------------------------------------------------
# Literal nested-sum transcription (slow path) vs the regrouped builders
# ---------------------------------------------------------------------------

from meansq.exact import bernoulli, binomial, deriv_coeff, factorial
from meansq.sine_sums import sin_sum_exact
from combo_algebra import jc_add, jc_scale


def _literal_chebyshev_block(n, weight):
    """The c/d (n even) or e/f (n odd) double sum for one alpha+beta = n."""
    total = {}
    if n % 2 == 0:
        for c in range(n // 2 + 1):
            for d in range((n - 2 * c) // 2 + 1):
                coeff = (
                    weight
                    * (-1) ** (c + d + n // 2)
                    * n
                    * factorial(n - c - 1)
                    / (F(2) ** (2 * c + 1) * factorial(c) * factorial(n - 2 * c))
                    * binomial((n - 2 * c) // 2, d)
                )
                total = jc_add(total, jc_scale(sin_sum_exact(n - 2 * d), coeff))
    else:
        for e in range((n - 1) // 2 + 1):
            for f in range((n - 2 * e - 1) // 2 + 1):
                coeff = (
                    weight
                    * (-1) ** (e + f + (n + 1) // 2)
                    * factorial(n - e - 1)
                    / (F(2) ** (2 * e + 1) * factorial(e) * factorial(n - 2 * e - 1))
                    * binomial((n - 2 * e - 1) // 2, f)
                )
                total = jc_add(total, jc_scale(sin_sum_exact(n - 2 * f - 1), coeff))
    return total


def _accumulate(laurent, e, combo):
    merged = jc_add(laurent.get(e, {}), combo)
    if merged:
        laurent[e] = merged
    else:
        laurent.pop(e, None)


def literal_sigma2(h):
    """The direct product block written as the one literal nested sum."""
    r = 2 * h + 1
    out = {}
    for q1 in range(2 * h + 1):
        for q2 in range(2 * h + 1):
            for j in range(1, r - q1 + 1):
                for s in range(1, r - q2 + 1):
                    for alpha in range(1, r + 1 - q1 - j + 1):
                        base = (
                            bernoulli(q1)
                            * bernoulli(q2)
                            * binomial(r, q1)
                            * binomial(r, q2)
                            * binomial(r - q1, j)
                            * binomial(r - q2, s)
                            * deriv_coeff(r - q1 - j, alpha)
                        )
                        if not base:
                            continue
                        e = q1 + q2 + j + s - 4 * h - 2
                        for beta in range(1, r + 1 - q2 - s + 1):
                            w = base * deriv_coeff(r - q2 - s, beta)
                            _accumulate(out, e, _literal_chebyshev_block(alpha + beta, w))
    return out


def literal_sigma1(h):
    """The reflected block written as the one literal nested sum."""
    r = 2 * h + 1
    out = {}
    for q1 in range(2 * h + 1):
        for q2 in range(2 * h + 1):
            for a in range(2 * h - q2 + 1):
                for j in range(1, r - q1 + 1):
                    for s in range(1, r - q2 - a + 1):
                        for alpha in range(1, r + 1 - q1 - j + 1):
                            base = (
                                bernoulli(q1)
                                * bernoulli(q2)
                                * binomial(r, q1)
                                * binomial(r, q2)
                                * binomial(r - q2, a)
                                * binomial(r - q1, j)
                                * binomial(r - q2 - a, s)
                                * (-1) ** (r - q2 - a)
                                * deriv_coeff(r - q1 - j, alpha)
                            )
                            if not base:
                                continue
                            e = a + q1 + q2 + j + s - 4 * h - 2
                            for beta in range(1, r - q2 - a - s + 2):
                                w = base * deriv_coeff(r - q2 - a - s, beta)
                                _accumulate(out, e, _literal_chebyshev_block(alpha + beta, w))
    return out


class TestLiteralTranscription:
    """Pin the regrouped builders to the literal nested-sum structure."""

    def test_sigma2_matches_literal(self):
        for h in (1, 2):
            assert sigma2(h) == literal_sigma2(h), f"h={h}"

    def test_sigma1_matches_literal(self):
        for h in (1, 2):
            assert sigma1(h) == literal_sigma1(h), f"h={h}"


class TestProperties:
    """The block identities the final formulas rely on, beyond the h <= 4 of
    ``identity-check --which sigma-cancel``."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(1, 8))
    def test_odd_blocks_cancel(self, h):
        assert kl_add(sigma1(h), sigma2(h)) == {}, h

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 8))
    def test_even_blocks_agree(self, h):
        assert sigma1_prime(h) == sigma2_prime(h), h


class TestTopTerm:
    """The main form's phi(k) J_{2r}(k) / k^(2r) term has coefficient zeta(2r)/2,
    so scalar times that term's coefficient is zeta(2r)/(2 pi^(2r)), a
    Bernoulli rational, held by exact equality."""

    @pytest.mark.parametrize("r", [*range(3, 16), 21, 31, 41, 60, 61])
    def test_top_term_is_half_zeta(self, r):
        form = mean_square_odd(r) if r % 2 else mean_square_even(r)
        expected = (-1) ** (r + 1) * bernoulli(2 * r) * F(2) ** (2 * r) / (4 * factorial(2 * r))
        assert form.scalar * form.body[-2 * r][2 * r] == expected
