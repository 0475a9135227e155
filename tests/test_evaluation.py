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

from meansq import symbolic
from meansq.mean_square import mean_square_even, mean_square_odd
from meansq.multiplicative import factorize, jordan_totient
from meansq.sine_sums import UncancelledPowerError, sin_sum_exact
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
        assert len(forms) == 41
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
        assert len(combos) == 41
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


SINE_ORDERS = range(0, 42, 2)
PLAN_MODULI = (3, 30, 210, 1024, 99991, 720720)


def _mutations(n):
    """Copies of sin_sum_exact(n), each changed in place in one way."""
    top = max(sin_sum_exact(n))
    low = min(sin_sum_exact(n))

    def changed(s, factor):
        combo = sin_sum_exact(n)
        combo[s] *= factor
        return combo

    def dropped(s):
        combo = sin_sum_exact(n)
        del combo[s]
        return combo

    def added(s, c):
        combo = sin_sum_exact(n)
        combo[s] = c
        return combo

    # The added top index n + 2 is the key of the next cached sum; the
    # added odd index 3 leaves the top index, and so the key, unchanged.
    return {
        "top-changed": changed(top, 3),
        "low-changed": changed(low, Fraction(-1, 2)),
        "top-dropped": dropped(top),
        "low-dropped": dropped(low),
        "above-added": added(n + 2, Fraction(1, 7)),
        "odd-added": added(3, Fraction(5)),
    }


class TestKeptSinePlans:
    """``evaluate_jordan`` reuses a cached sine sum's plan only for an equal combo."""

    def test_every_cached_sum_uses_its_kept_plan(self, monkeypatch):
        combos = {n: sin_sum_exact(n) for n in SINE_ORDERS}

        def refuse(laurent):
            raise AssertionError(f"plan built for a cached sine sum: {laurent}")

        monkeypatch.setattr(symbolic, "_laurent_plan", refuse)
        for n, combo in combos.items():
            for k in PLAN_MODULI:
                assert evaluate_jordan(combo, k) == ref_combo(combo, k), (n, k)

    @pytest.mark.parametrize("n", [0, 2, 6, 20, 40])
    def test_mutated_copies_get_their_own_plan(self, n):
        for name, combo in _mutations(n).items():
            for k in PLAN_MODULI:
                assert evaluate_jordan(combo, k) == ref_combo(combo, k), (n, name, k)

    def test_equal_combo_of_fresh_fractions(self):
        for n in SINE_ORDERS:
            fresh = {s: Fraction(c.numerator, c.denominator) for s, c in sin_sum_exact(n).items()}
            for k in PLAN_MODULI:
                value = evaluate_jordan(fresh, k)
                assert value == evaluate_jordan(sin_sum_exact(n), k) == ref_combo(fresh, k), (n, k)

    def test_values_after_the_cache_is_rebuilt(self, corrupted_induction):
        # The fixture emptied the sine-sum cache: the orders below the
        # corrupted one are rebuilt, with new Fraction objects, and the
        # corrupted order is never cached.
        n = corrupted_induction
        for order in range(0, n, 2):
            combo = sin_sum_exact(order)
            for k in PLAN_MODULI:
                assert evaluate_jordan(combo, k) == ref_combo(combo, k), (order, k)
        with pytest.raises(UncancelledPowerError):
            sin_sum_exact(n)
        for combo in _golden_sin_sums():
            for k in PLAN_MODULI:
                assert evaluate_jordan(combo, k) == ref_combo(combo, k), (combo, k)
