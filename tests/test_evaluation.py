"""Exact evaluation at k against the plain Fraction-product definition.

``evaluate_jordan``, ``evaluate_laurent`` and ``evaluate_closed_form`` work
in integers from one factorization of k.  The reference below is the
textbook definition, J_s(k) = k^s * prod_{p | k} (1 - p^(-s)) as a product
of Fractions, summed term by term; every value must match it exactly.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from meansq.mean_square import mean_square_even, mean_square_odd
from meansq.multiplicative import factorize, jordan_totient
from meansq.symbolic import (
    evaluate_closed_form,
    evaluate_jordan,
    evaluate_laurent,
    jc_add,
    parse_closed_form,
    parse_jordan_combo,
)

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden_symbolic.json").read_text(encoding="utf-8"))

# Powers of two, primorials, highly composite numbers, a prime near 10^5,
# twice that prime, and the top of the warm-query range; then moduli whose
# primes lie past the factorization's table of the primes below 1000: the
# largest prime below 10^6, and 10^6 + 3, which is prime.
MODULI = (
    3, 4, 8, 1024, 2**20, 30, 210, 2310, 360, 720720, 99991, 2 * 99991, 10**5,
    1009**2, 2 * 1009 * 1013, 999983, 10**6 + 3,
)


def ref_jordan(s, k):
    out = Fraction(k) ** s
    for p in factorize(k).primes:
        out *= 1 - Fraction(1, p**s)
    return out


def ref_combo(combo, k):
    return sum((c * ref_jordan(s, k) for s, c in combo.items()), Fraction(0))


def ref_laurent(laurent, k):
    return sum((Fraction(k) ** e * ref_combo(combo, k) for e, combo in laurent.items()), Fraction(0))


def ref_closed_form(form, k, precision_bits):
    exact = form.scalar * ref_jordan(1, k) ** form.phi_exp * ref_laurent(form.body, k)
    with mp.workprec(precision_bits + 16):
        value = mp.mpf(exact.numerator) / exact.denominator * mp.pi**form.pi_exp
    with mp.workprec(precision_bits):
        value = +value
    return value


def _golden_forms():
    return [parse_closed_form(text) for renders in GOLDEN["closed_forms"].values() for text in renders]


def _golden_sin_sums():
    return [parse_jordan_combo(text) for text in GOLDEN["sin_sums"].values()]


def _golden_sigma_blocks():
    return [
        {int(e): parse_jordan_combo(combo) for e, combo in json.loads(text).items()}
        for blocks in GOLDEN["sigma"].values()
        for text in blocks.values()
    ]


class TestGoldenValues:
    def test_closed_forms(self):
        forms = _golden_forms()
        assert len(forms) == 15
        for form in forms:
            for k in MODULI:
                assert evaluate_laurent(form.body, k) == ref_laurent(form.body, k), (form, k)
                for bits in (53, 128):
                    got = evaluate_closed_form(form, k, bits)
                    assert got._mpf_ == ref_closed_form(form, k, bits)._mpf_, (form, k, bits)

    @pytest.mark.parametrize("r", range(16, 22))
    def test_built_forms_beyond_golden(self, r):
        # Built forms, not parsed renders: the builders hand ClosedForm bodies
        # that are not yet canonical, so this also checks that the
        # evaluation plan is made from the canonical body.
        forms = mean_square_odd(r) if r % 2 else mean_square_even(r)
        for form in forms if isinstance(forms, tuple) else (forms,):
            for k in MODULI:
                for bits in (53, 128):
                    got = evaluate_closed_form(form, k, bits)
                    assert got._mpf_ == ref_closed_form(form, k, bits)._mpf_, (r, k, bits)

    def test_sin_sums(self):
        combos = _golden_sin_sums()
        assert len(combos) == 21
        for combo in combos:
            for k in MODULI:
                assert evaluate_jordan(combo, k) == ref_combo(combo, k), (combo, k)

    def test_sigma_blocks(self):
        blocks = _golden_sigma_blocks()
        assert blocks
        for laurent in blocks:
            for k in MODULI:
                assert evaluate_laurent(laurent, k) == ref_laurent(laurent, k), (laurent, k)


coefficients = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
combos = st.dictionaries(st.integers(1, 30), coefficients, max_size=8)
moduli = st.integers(1, 10**6)


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(combos, moduli)
    def test_combo_matches_reference(self, combo, k):
        assert evaluate_jordan(combo, k) == ref_combo(combo, k)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.dictionaries(st.integers(-40, 40), combos, max_size=4), moduli)
    def test_laurent_matches_reference(self, laurent, k):
        assert evaluate_laurent(laurent, k) == ref_laurent(laurent, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(combos, combos, moduli)
    def test_additive(self, a, b, k):
        assert evaluate_jordan(jc_add(a, b), k) == evaluate_jordan(a, k) + evaluate_jordan(b, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(1, 2000), st.integers(1, 2000))
    def test_jordan_multiplicative(self, s, m, n):
        assume(math.gcd(m, n) == 1)
        assert jordan_totient(s, m * n) == jordan_totient(s, m) * jordan_totient(s, n)
