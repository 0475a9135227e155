"""Tests for the character enumeration and numeric L-value oracle."""

import itertools
import math
import random

import pytest
from mpmath import mp

from meansq.mean_square import mean_square_even, mean_square_odd
from meansq.multiplicative import coprime_residues, euler_phi
from meansq.oracle import (
    DirichletCharacter,
    character_group,
    characters_with_parity,
    exp_sum_direct,
    l_value_numeric,
    mean_square_numeric,
    power_exp_identity_check,
)
from meansq.symbolic import evaluate_closed_form


def closed_form_value(r, k, precision_bits):
    forms = mean_square_odd(r) if r % 2 else mean_square_even(r)
    forms = forms if isinstance(forms, tuple) else (forms,)
    with mp.workprec(precision_bits):
        return mp.fsum(evaluate_closed_form(f, k, precision_bits) for f in forms)


def all_characters(k):
    group = character_group(k)
    return [
        DirichletCharacter(group, vec)
        for vec in itertools.product(*(range(o) for o in group.orders))
    ]


class TestCharacterGroup:
    def test_k5_single_factor_order4(self):
        g = character_group(5)
        assert g.orders == (4,)
        assert len(g.dlog) == 4

    def test_k8_two_order2_factors(self):
        g = character_group(8)
        assert sorted(g.orders) == [2, 2]

    def test_k3(self):
        assert character_group(3).orders == (2,)

    def test_trivial_moduli(self):
        assert character_group(1).orders == ()
        assert character_group(2).orders == ()

    def test_order_product_is_phi(self):
        for k in range(1, 80):
            g = character_group(k)
            assert math.prod(g.orders) == euler_phi(k)
            assert len(g.dlog) == euler_phi(k)

    def test_generators_reproduce_dlog(self):
        for k in (5, 8, 12, 16, 21, 24, 35, 40):
            g = character_group(k)
            for m, vec in g.dlog.items():
                prod = 1
                for (gen, _), e in zip(g.factors, vec):
                    prod = prod * pow(gen, e, k) % k
                assert prod == m


class TestCharacters:
    def test_parity_counts(self):
        for k in range(3, 13):
            odd = characters_with_parity(k, "odd")
            even = characters_with_parity(k, "even")
            assert len(odd) == len(even) == euler_phi(k) / 2, k
            assert all(c.is_odd for c in odd)
            assert not any(c.is_odd for c in even)

    def test_small_moduli_rejected(self):
        for k in (1, 2):
            with pytest.raises(ValueError):
                characters_with_parity(k, "odd")
        with pytest.raises(ValueError):
            characters_with_parity(5, "both")

    def test_examples(self):
        assert len(characters_with_parity(4, "odd")) == 1
        assert len(characters_with_parity(5, "even")) == 2
        assert len(characters_with_parity(3, "odd")) == 1

    def test_multiplicative_by_sampling(self):
        rng = random.Random(1203)
        for k in (5, 8, 9, 12, 15):
            for chi in all_characters(k):
                for _ in range(20):
                    m = rng.randrange(1, 3 * k)
                    n = rng.randrange(1, 3 * k)
                    tm, tn, tmn = (
                        chi.unit_exponent(m),
                        chi.unit_exponent(n),
                        chi.unit_exponent(m * n),
                    )
                    if math.gcd(m, k) > 1 or math.gcd(n, k) > 1:
                        assert tmn is None or None in (tm, tn)
                    else:
                        assert tmn == (tm + tn) % 1

    def test_vanishes_off_coprimes(self):
        chi = characters_with_parity(12, "odd")[0]
        for m in range(1, 13):
            theta = chi.unit_exponent(m)
            assert (theta is None) == (math.gcd(m, 12) > 1)

    def test_orthogonality_of_odd_characters(self):
        # sum over odd chi of chi(m) conj(chi(n)) is phi/2, -phi/2 or 0
        # according to n = m, n = k - m, or neither (mod k).
        with mp.workprec(128):
            for k in range(3, 13):
                odd = characters_with_parity(k, "odd")
                half_phi = int(euler_phi(k)) / mp.mpf(2)
                for m in coprime_residues(k):
                    for n in coprime_residues(k):
                        total = mp.fsum(
                            (chi.value(m) * mp.conj(chi.value(n)) for chi in odd),
                            absolute=False,
                        )
                        if n == m % k:
                            expected = half_phi
                        elif n == (k - m) % k:
                            expected = -half_phi
                        else:
                            expected = mp.mpf(0)
                        assert abs(total - expected) < mp.mpf(2) ** -100, (k, m, n)

    def test_gauss_sum_at_zero_vanishes(self):
        # sum_{j=1}^{k} sum_m chi(m) e(mj/k) = 0 for every character
        with mp.workprec(128):
            for k in range(3, 13):
                for chi in all_characters(k):
                    total = mp.fsum(
                        (
                            chi.value(m) * mp.expjpi(2 * mp.mpf(m * j) / k)
                            for j in range(1, k + 1)
                            for m in range(1, k)
                        ),
                        absolute=False,
                    )
                    assert abs(total) < mp.mpf(2) ** -96, k


class TestLValues:
    def test_principal_mod4_at_2(self):
        chi0 = next(c for c in characters_with_parity(4, "even") if c.is_principal)
        value = l_value_numeric(2, chi0, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**2 / 8) < mp.mpf(2) ** -110
            assert abs(value.imag) < mp.mpf(2) ** -110

    def test_beta_function_at_3(self):
        chi = characters_with_parity(4, "odd")[0]
        value = l_value_numeric(3, chi, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**3 / 32) < mp.mpf(2) ** -110

    def test_r1_odd_character_mod4(self):
        chi = characters_with_parity(4, "odd")[0]
        value = l_value_numeric(1, chi, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi / 4) < mp.mpf(2) ** -110

    def test_r1_guards(self):
        chi0 = next(c for c in characters_with_parity(4, "even") if c.is_principal)
        with pytest.raises(ValueError):
            l_value_numeric(1, chi0, 128)
        with pytest.raises(ValueError):
            l_value_numeric(0, chi0, 128)
        with pytest.raises(ValueError):
            l_value_numeric(2, chi0, 32)

    def test_two_precision_agreement(self):
        for k in (5, 7, 12):
            for chi in characters_with_parity(k, "even")[:2]:
                lo = l_value_numeric(3, chi, 128)
                hi = l_value_numeric(3, chi, 192)
                with mp.workprec(192):
                    assert abs(lo - hi) / abs(hi) < mp.mpf(2) ** -120, k


class TestMeanSquareNumeric:
    def test_enumeration_order_irrelevant(self):
        for r, k in ((3, 12), (4, 9)):
            reference = mean_square_numeric(r, k, 128)
            chars = characters_with_parity(k, "odd" if r % 2 else "even")
            with mp.workprec(160):
                forward = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in chars)
                backward = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in reversed(chars))
                assert abs(forward - backward) / forward < mp.mpf(2) ** -150
                assert abs(reference - forward) / forward < mp.mpf(2) ** -120

    def test_k_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(3, 2, 128)

    def test_r_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(0, 5, 128)

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(3, 5, 52)

    @pytest.mark.parametrize(
        "k,ranks",
        [
            (8, (1, 3, 4, 5)),
            (9, (1, 3, 4, 5)),
            (16, (1, 3, 4, 5)),
            (25, (1, 3)),
            (27, (1, 4)),
            (30, (1, 3, 4, 5)),
        ],
    )
    def test_three_routes_agree(self, k, ranks):
        # residue sum, per-character sum of |L|^2 and the closed form, over
        # 2^a, odd prime powers and a composite; the per-character route
        # costs phi(k)^2/2 zeta calls, so 25 and 27 take fewer ranks
        tol = mp.mpf(2) ** -120
        for r in ranks:
            chars = characters_with_parity(k, "odd" if r % 2 else "even")
            residue = mean_square_numeric(r, k, 160)
            symbolic = closed_form_value(r, k, 160)
            with mp.workprec(160):
                per_character = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in chars)
                for other in (per_character, symbolic):
                    assert abs(residue - other) / other < tol, (r, k)

    @pytest.mark.parametrize(
        "k,ranks",
        [
            (64, (1, 3, 9)),
            (128, (1, 4, 8)),
            (81, (1, 5, 7)),
            (125, (1, 6, 9)),
            (49, (1, 3, 7)),
            (120, (1, 4, 6)),
            (210, (1, 5, 8)),
            (360, (1, 3, 9)),
        ],
    )
    def test_closed_form_sweep_large_moduli(self, k, ranks):
        for r in ranks:
            numeric = mean_square_numeric(r, k, 128)
            symbolic = closed_form_value(r, k, 128)
            with mp.workprec(128):
                assert abs(numeric - symbolic) / symbolic < mp.mpf(2) ** -120, (r, k)


class TestExponentialSums:
    def test_factor_swap_symmetry(self):
        a = exp_sum_direct(2, 3, 5, conjugate_second=False)
        b = exp_sum_direct(3, 2, 5, conjugate_second=False)
        with mp.workprec(128):
            assert abs(a - b) < mp.mpf(2) ** -100

    def test_conjugated_variant_differs(self):
        a = exp_sum_direct(2, 3, 7, conjugate_second=False)
        b = exp_sum_direct(2, 3, 7, conjugate_second=True)
        with mp.workprec(128):
            assert abs(a - b) > 1

    @pytest.mark.parametrize("n,m,k", [(1, 1, 3), (4, 3, 7), (2, 1, 4)])
    def test_power_identity_examples(self, n, m, k):
        assert power_exp_identity_check(n, m, k)

    def test_power_identity_gcd_guard(self):
        with pytest.raises(ValueError):
            power_exp_identity_check(2, 2, 4)
