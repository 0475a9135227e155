"""Exact evaluation at k against the plain Fraction-product definition.

``evaluate_jordan``, ``evaluate_laurent`` and ``evaluate_closed_form`` work
in integers from k's shared table of the J_s(k).  The reference below is the
textbook definition, J_s(k) = k^s * prod_{p | k} (1 - p^(-s)) as a product
of Fractions, summed term by term; every value must match it exactly, and
every closed-form value must match, bit for bit, mpmath's context arithmetic
on that exact value.
"""

import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from combo_algebra import jc_add
from meansq import multiplicative, sine_sums, symbolic
from meansq.mean_square import mean_square_even, mean_square_odd
from meansq.multiplicative import _factor, euler_phi, jordan_totient
from meansq.sine_sums import UncancelledPowerError, sin_sum_exact
from meansq.symbolic import (
    ClosedForm,
    evaluate_closed_form,
    evaluate_jordan,
    evaluate_laurent,
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

# Working precisions of the closed-form checks: the double's 53 bits, one
# word, the CLI's default, and two that are not multiples of 64.
PRECISIONS = (53, 64, 128, 200, 333)


def ref_jordan(s, k):
    out = Fraction(k) ** s
    for p in _factor(k)[0]:
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
                for bits in PRECISIONS:
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
                for bits in PRECISIONS:
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
closed_forms = st.builds(
    ClosedForm,
    coefficients,
    st.integers(0, 40),
    st.integers(0, 3),
    st.dictionaries(st.integers(-40, 40), combos, max_size=4),
)


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(combos, moduli)
    def test_combo_matches_reference(self, combo, k):
        assert evaluate_jordan(combo, k) == ref_combo(combo, k)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.dictionaries(st.integers(-40, 40), combos, max_size=4), moduli)
    def test_laurent_matches_reference(self, laurent, k):
        assert evaluate_laurent(laurent, k) == ref_laurent(laurent, k)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(closed_forms, st.integers(3, 10**6), st.sampled_from(PRECISIONS))
    def test_closed_form_matches_reference(self, form, k, bits):
        assert evaluate_closed_form(form, k, bits)._mpf_ == ref_closed_form(form, k, bits)._mpf_

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(combos, combos, moduli)
    def test_additive(self, a, b, k):
        assert evaluate_jordan(jc_add(a, b), k) == evaluate_jordan(a, k) + evaluate_jordan(b, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(1, 2000), st.integers(1, 2000))
    def test_jordan_multiplicative(self, s, m, n):
        assume(math.gcd(m, n) == 1)
        assert jordan_totient(s, m * n) == jordan_totient(s, m) * jordan_totient(s, n)


def _ratio_form(num, den, pi_exp=0):
    """A form whose value at k = 3 is exactly num / den * pi^pi_exp (J_1(3) = 2)."""
    return ClosedForm(Fraction(num, 2 * den), pi_exp, 0, {0: {1: Fraction(1)}})


def _rounding_cases(bits):
    """(name, num, den, pi_exp, exact expected value or None) at ``bits``.

    The value num / den * pi^pi_exp is first rounded to P = bits + 16 bits
    (numerator, quotient, product), then to ``bits``.  X is an even
    ``bits``-bit mantissa; H = X * 2^16 + 2^15 is a P-bit mantissa that
    lies exactly halfway between two ``bits``-bit ones.
    """
    prec = bits + 16
    x = 1 << (bits - 1)
    h = (x << 16) + (1 << 15)
    return [
        # ties at the final rounding go to the even neighbour: down from X, up from X + 1
        ("final tie, even", h, 1, 0, x << 16),
        ("final tie, odd", h + (1 << 16), 1, 0, (x + 2) << 16),
        # the numerator 2H + 1 (and 32 (2H + 1)) ties at P bits and goes to the even H,
        # which ties again at the final rounding and goes to X
        ("P-bit tie", 2 * h + 1, 1, 0, x << 17),
        ("P-bit tie, shifted", (2 * h + 1) << 5, 1, 0, x << 22),
        # just above (and, negated, just below) H + 1/2: only the sticky bit of the
        # quotient's remainder tells it from a tie, and it rounds to H + 1, then to X + 1
        ("sticky quotient", 1, (1 << 3 * prec) // (2 * h + 1), 0, Fraction(x + 1, 1 << 3 * prec - 17)),
        ("sticky quotient, negative", -1, (1 << 3 * prec) // (2 * h + 1), 0, Fraction(-x - 1, 1 << 3 * prec - 17)),
        # all-ones mantissas that round up into a new bit: at the final rounding,
        # at P bits, and in the quotient
        ("carry, final", (1 << prec) - 1, 1, 0, 1 << prec),
        ("carry, P bits", (1 << prec + 1) - 1, 1, 0, 1 << prec + 1),
        ("carry, quotient", 1, (1 << 3 * prec) // ((1 << prec + 1) - 1), 0, Fraction(1, 1 << 2 * prec - 1)),
        ("carry, negative", -((1 << prec) - 1), 3, 0, None),
        ("negative, pi", -(2 * h + 1), 7, 5, None),
        ("10 000-bit numerator", 3**6400, 5**2000 + 2, 3, None),
        ("10 000-bit numerator, negative", -(3**6400 + 1), 7**1500, 0, None),
    ]


class TestRounding:
    """Constructed cases where a wrong rounding step changes the last bit."""

    @pytest.mark.parametrize("bits", PRECISIONS)
    def test_constructed_cases(self, bits):
        for name, num, den, pi_exp, expected in _rounding_cases(bits):
            form = _ratio_form(num, den, pi_exp)
            got = evaluate_closed_form(form, 3, bits)
            assert got._mpf_ == ref_closed_form(form, 3, bits)._mpf_, (name, bits)
            if expected is not None:
                sign, man, exp, _ = got._mpf_
                assert (-1) ** sign * man * Fraction(2) ** exp == expected, (name, bits)

    def test_form_vanishing_at_prime_k(self):
        # J_2 - (k + 1) J_1 is zero at every prime k and nonzero at k = 4
        form = ClosedForm(Fraction(1, 3), 2, 1, {0: {2: Fraction(1), 1: Fraction(-1)}, 1: {1: Fraction(-1)}})
        for k in (3, 5, 7, 99991, 999983, 10**6 + 3):
            for bits in PRECISIONS:
                got = evaluate_closed_form(form, k, bits)
                assert got == 0 and got._mpf_ == ref_closed_form(form, k, bits)._mpf_, (k, bits)
        for k in (4, 30, 2**20):
            for bits in PRECISIONS:
                got = evaluate_closed_form(form, k, bits)
                assert got != 0 and got._mpf_ == ref_closed_form(form, k, bits)._mpf_, (k, bits)


class TestModulusTable:
    """Every evaluation at one k shares k's factorization and Jordan table."""

    def test_values_do_not_depend_on_order(self):
        # 12 and 18 share their primes but not k / rad k, and so do 2^20 and 2^21;
        # two passes over MODULI (17 moduli) also evict every entry once
        multiplicative._modulus.cache_clear()
        form = mean_square_odd(5)
        combo = sin_sum_exact(20)
        for k in (12, 18, 12, 2**20, 2**21, 2**20, 18, 2**21, *MODULI, *MODULI):
            assert evaluate_closed_form(form, k)._mpf_ == ref_closed_form(form, k, 128)._mpf_, k
            assert evaluate_jordan(combo, k) == ref_combo(combo, k), k
            assert jordan_totient(3, k) == ref_jordan(3, k), k
            assert euler_phi(k) == ref_jordan(1, k), k

    def test_one_factorization_per_modulus(self):
        # k is factored only where its entry is built, on a miss of _modulus;
        # the six calls below each read the entry once
        multiplicative._modulus.cache_clear()
        k = 99990
        for form in mean_square_odd(1):
            evaluate_closed_form(form, k)
        evaluate_jordan(sin_sum_exact(30), k)
        evaluate_laurent({-2: {4: Fraction(1, 3)}}, k)
        jordan_totient(7, k)
        euler_phi(k)
        info = multiplicative._modulus.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 5, 1)

    def test_float_modulus_is_refused(self):
        multiplicative._modulus.cache_clear()
        evaluate_jordan({2: Fraction(1)}, 12)
        before = multiplicative._modulus.cache_info()
        for k in (12.0, 12.5):
            with pytest.raises(ValueError, match=f"jordan_totient: k must be an integer >= 1, got {k}"):
                jordan_totient(2, k)
            with pytest.raises(ValueError, match=f"evaluate_jordan: k must be an integer >= 1, got {k}"):
                evaluate_jordan({2: Fraction(1)}, k)
        assert multiplicative._modulus.cache_info() == before
        value = evaluate_jordan({2: Fraction(1)}, 12)
        assert value == 96 and type(value.numerator) is int


SINE_ORDERS = range(0, 42, 2)
PLAN_MODULI = (3, 30, 210, 1024, 99991, 720720)


def _mutations(n):
    """Plain-dict copies of sin_sum_exact(n), each changed in one way."""
    top = max(sin_sum_exact(n))
    low = min(sin_sum_exact(n))

    def changed(s, factor):
        combo = dict(sin_sum_exact(n))
        combo[s] *= factor
        return combo

    def dropped(s):
        combo = dict(sin_sum_exact(n))
        del combo[s]
        return combo

    def added(s, c):
        combo = dict(sin_sum_exact(n))
        combo[s] = c
        return combo

    # The added top index n + 2 is the top index of the next cached sum;
    # the added odd index 3 leaves the top index unchanged.
    return {
        "top-changed": changed(top, 3),
        "low-changed": changed(low, Fraction(-1, 2)),
        "top-dropped": dropped(top),
        "low-dropped": dropped(low),
        "above-added": added(n + 2, Fraction(1, 7)),
        "odd-added": added(3, Fraction(5)),
    }


class TestKeptSinePlans:
    """``evaluate_jordan`` reads the plan a cached sine sum carries, and plans any other combo."""

    def test_every_cached_sum_uses_its_kept_plan(self, monkeypatch):
        combos = {n: sin_sum_exact(n) for n in SINE_ORDERS}

        def refuse(laurent, *args):
            raise AssertionError(f"plan built for a cached sine sum: {laurent}")

        monkeypatch.setattr(symbolic, "_build_plan", refuse)
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

    def test_equal_float_key_is_checked(self):
        # {2.0: ...} equals a sum keyed by 2, but only the cached value itself carries a plan
        for n in range(2, 42, 2):
            combo = {2.0 if s == 2 else s: c for s, c in sin_sum_exact(n).items()}
            assert combo == sin_sum_exact(n), n
            with pytest.raises(ValueError, match="evaluate_jordan: Jordan index must be an integer, got 2.0"):
                evaluate_jordan(combo, 7)

    def test_unplanned_copies_agree_with_the_plan(self):
        for n in SINE_ORDERS:
            combo = sin_sum_exact(n)
            for again in (dict(combo), pickle.loads(pickle.dumps(combo))):
                assert getattr(again, "_plan", None) is None, n
                for k in PLAN_MODULI:
                    assert evaluate_jordan(again, k) == evaluate_jordan(combo, k), (n, k)

    def test_kept_plan_wraps_the_cached_row(self):
        # the kept plan is the one _build_plan would make, over the lcm of the
        # published denominators; the Laurent expansion reads its row, and
        # clearing the sine-sum cache replaces it on the next build
        before = sine_sums._sin(20)._plan
        sine_sums._sin.cache_clear()
        for n in range(0, 81, 2):
            combo = sine_sums._sin(n)
            plan = combo._plan
            assert plan == symbolic._build_plan({0: combo}, "evaluate_jordan"), n
            assert plan[1] == math.lcm(*[c.denominator for c in combo.values()]), n
        assert sine_sums._sin(20)._plan is not before

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
