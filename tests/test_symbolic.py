"""Tests for the Jordan-combination algebra and closed-form rendering."""

import copy
import json
import math
import operator
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from combo_algebra import jc_add, jc_scale, kl_add
from meansq import mean_square
from meansq.mean_square import exp_product_real
from meansq.sine_sums import recip_power_real_sum, sin_sum_exact
from meansq.symbolic import (
    ClosedForm,
    evaluate_closed_form,
    evaluate_jordan,
    evaluate_laurent,
    kl_shift,
    parse_closed_form,
    parse_jordan_combo,
    render,
)

F = Fraction
FORMATS = ("json", "latex", "text")


class TestAlgebra:
    def test_cancellation_drops_entries(self):
        assert jc_add({2: F(1, 3)}, {2: F(-1, 3)}) == {}

    def test_scale(self):
        assert jc_scale({2: F(1, 3)}, 3) == {2: F(1)}
        assert jc_scale({2: F(1, 3)}, 0) == {}

    def test_shift(self):
        assert kl_shift({-8: {10: F(1)}}, 3) == {-5: {10: F(1)}}

    def test_kl_add_cancels_empty_cells(self):
        a = {-2: {2: F(1, 4)}}
        b = {-2: {2: F(-1, 4)}, 0: {1: F(1)}}
        assert kl_add(a, b) == {0: {1: F(1)}}

    def test_inputs_not_mutated(self):
        a = {2: F(1, 3)}
        b = {2: F(1, 6), 4: F(1)}
        jc_add(a, b)
        assert a == {2: F(1, 3)} and b == {2: F(1, 6), 4: F(1)}


class TestEvaluation:
    def test_examples(self):
        assert evaluate_jordan({2: F(1, 3)}, 3) == F(8, 3)
        assert evaluate_jordan({}, 5) == 0
        assert evaluate_jordan({1: F(1)}, 12) == 4

    def test_laurent(self):
        assert evaluate_laurent({-2: {2: F(1)}}, 3) == F(8, 9)

    @pytest.mark.parametrize("k", [0, -3])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ValueError, match=f"evaluate_laurent: k must be >= 1, got {k}"):
            evaluate_laurent({-2: {1: F(1)}}, k)
        with pytest.raises(ValueError, match=f"evaluate_jordan: k must be >= 1, got {k}"):
            evaluate_jordan({1: F(1)}, k)

    def test_index_below_one_names_the_evaluator(self):
        form = ClosedForm(F(1), 2, 1, {0: {0: F(1), 2: F(1)}})
        for index in (0, -2):
            with pytest.raises(ValueError, match=f"evaluate_jordan: Jordan index must be >= 1, got {index}"):
                evaluate_jordan({index: F(1)}, 5)
            with pytest.raises(ValueError, match=f"evaluate_laurent: Jordan index must be >= 1, got {index}"):
                evaluate_laurent({index: {index: F(1)}}, 5)
        with pytest.raises(ValueError, match="evaluate_closed_form: Jordan index must be >= 1, got 0"):
            evaluate_closed_form(form, 5)

    @pytest.mark.parametrize("bits", [53.5, 128.0, "128", None, 52, 0])
    def test_precision_must_be_an_integer_of_53_or_more(self, bits):
        form = ClosedForm(F(1), 2, 1, {0: {2: F(1)}})
        kind = "" if type(bits) is int else "an integer "
        message = f"evaluate_closed_form: precision_bits must be {kind}>= 53, got {bits!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_closed_form(form, 10, bits)

    def test_ring_homomorphism(self):
        rng = random.Random(7001)
        for _ in range(50):
            a = {rng.randrange(1, 9): F(rng.randrange(-9, 10) or 1, rng.randrange(1, 12)) for _ in range(3)}
            b = {rng.randrange(1, 9): F(rng.randrange(-9, 10) or 1, rng.randrange(1, 12)) for _ in range(3)}
            k = rng.randrange(1, 101)
            assert evaluate_jordan(jc_add(a, b), k) == evaluate_jordan(a, k) + evaluate_jordan(b, k)


class TestClosedForm:
    def test_canonicalization_extracts_content(self):
        raw = ClosedForm(
            scalar=F(-4, 225),
            pi_exp=10,
            phi_exp=1,
            body={-10: {10: F(-5, 16632), 4: F(5, 756), 2: F(5, 72)}},
        )
        assert raw.scalar == F(1, 187110)
        assert raw.body == {-10: {10: F(1), 4: F(-22), 2: F(-231)}}

    def test_zero_form(self):
        z = ClosedForm(scalar=F(3), pi_exp=2, phi_exp=0, body={})
        assert z.scalar == 0 and z.body == {}
        # dropping zero coefficients may empty the body entirely
        z2 = ClosedForm(scalar=F(1), pi_exp=0, phi_exp=0, body={0: {2: F(0)}})
        assert z2.scalar == 0 and z2.body == {}

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            ClosedForm(scalar=F(1), pi_exp=-1, phi_exp=0, body={0: {1: F(1)}})

    def test_evaluate_euler_value(self):
        # pi^2/6 * J_2(k)/k^2 at k = 4 is zeta(2) (1 - 1/4) = pi^2/8
        form = ClosedForm(scalar=F(1, 6), pi_exp=2, phi_exp=0, body={-2: {2: F(1)}})
        value = evaluate_closed_form(form, 4, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**2 / 8) < mp.mpf(2) ** -120

    def test_evaluate_zero_form(self):
        z = ClosedForm(scalar=F(0), pi_exp=0, phi_exp=0, body={})
        assert evaluate_closed_form(z, 5, 64) == 0

    def test_two_precision_agreement(self):
        form = ClosedForm(scalar=F(1, 187110), pi_exp=10, phi_exp=1, body={-10: {10: F(1), 4: F(-22), 2: F(-231)}})
        lo = evaluate_closed_form(form, 7, 128)
        hi = evaluate_closed_form(form, 7, 256)
        with mp.workprec(256):
            assert abs(lo - hi) / abs(hi) < mp.mpf(2) ** -120

    def test_guards(self):
        form = ClosedForm(scalar=F(1), pi_exp=0, phi_exp=0, body={0: {1: F(1)}})
        with pytest.raises(ValueError):
            evaluate_closed_form(form, 2, 128)
        with pytest.raises(ValueError):
            evaluate_closed_form(form, 5, 32)


def reference_form(scalar, pi_exp, phi_exp, body):
    """The previous canonicalization, kept as the reference rule.

    Zero coefficients and empty combos are dropped first; the body is then
    divided by its rational content (gcd of the numerators over lcm of the
    denominators), signed like the leading coefficient (highest k-exponent,
    then highest Jordan index), and the scalar is multiplied by it.  Returns
    a bare ``ClosedForm`` holding those values and a plan worked out here, so
    the renders run on the reference's values, not the constructor's.
    """
    body = {e: {s: F(c) for s, c in combo.items() if c} for e, combo in body.items()}
    body = {e: combo for e, combo in body.items() if combo}
    out = F(0)
    if body:
        cells = [c for combo in body.values() for c in combo.values()]
        lead = body[max(body)]
        sign = 1 if lead[max(lead)] > 0 else -1
        content = F(sign * math.gcd(*[c.numerator for c in cells]), math.lcm(*[c.denominator for c in cells]))
        out = F(scalar) * content
        body = {e: {s: c / content for s, c in combo.items()} for e, combo in body.items()}
    low = min(body, default=0)
    rows = tuple((e - low, tuple((s, c.numerator) for s, c in combo.items())) for e, combo in body.items())
    indices = {s for combo in body.values() for s in combo} | ({1} if phi_exp else set())
    plan = (out.numerator, out.denominator, phi_exp, low, rows, tuple(sorted(indices)))
    form = object.__new__(ClosedForm)
    fields = {"scalar": out, "pi_exp": pi_exp, "phi_exp": phi_exp, "body": body, "_plan": plan, "_renders": {}}
    for name, value in fields.items():
        object.__setattr__(form, name, value)
    return form


def typed_items(form):
    """The body's items in key order, each coefficient with its type."""
    return [(e, [(s, c, type(c)) for s, c in combo.items()]) for e, combo in form.body.items()]


def assert_matches_reference(args):
    form, want = ClosedForm(*args), reference_form(*args)
    assert (form.scalar, type(form.scalar)) == (want.scalar, F)
    assert typed_items(form) == typed_items(want)
    assert form._plan == want._plan
    for fmt in FORMATS:
        assert render(form, fmt) == render(want, fmt), fmt
    return form


# Keys that are not ints; each is put on a zero coefficient or an empty combo.
BAD_KEYS = (0.5, 2.0, True, "x", None)


def draw_body(rng):
    """0-4 k-exponents of 0-4 cells each: zeros, ints and Fractions of either sign."""
    coefficient = (
        lambda: rng.choice((0, F(0))),
        lambda: rng.randrange(-30, 31),
        lambda: F(rng.randrange(-60, 61), rng.randrange(1, 40)),
    )
    return {
        rng.randrange(-20, 5): {rng.randrange(1, 20): rng.choice(coefficient)() for _ in range(rng.randrange(5))}
        for _ in range(rng.randrange(5))
    }


def with_bad_key(rng, body):
    """``body`` with one key from BAD_KEYS on a zero cell or an empty combo, at a random place."""
    key = rng.choice(BAD_KEYS)
    exponents = [item for item in body.items() if item[0] != key]
    if rng.randrange(2):
        exponents.insert(rng.randrange(len(exponents) + 1), (key, rng.choice(({}, {2: 0}, {3: F(0)}))))
        return dict(exponents), "k-exponent", key
    e = rng.randrange(-20, 5)
    cells = [item for item in body.get(e, {}).items() if item[0] != key]
    cells.insert(rng.randrange(len(cells) + 1), (key, rng.choice((0, F(0)))))
    return {**body, e: dict(cells)}, "Jordan index", key


class TestReferenceRule:
    def test_random_bodies_match_the_reference(self):
        rng = random.Random(2113)
        seen = {"zero": 0, "int": 0, "Fraction": 0, "negative lead": 0, "zero form": 0}
        exponent_counts = set()
        for _ in range(2500):
            body = draw_body(rng)
            scalar = rng.choice((rng.randrange(-9, 10), F(rng.randrange(-9, 10), rng.randrange(1, 9))))
            form = assert_matches_reference((scalar, rng.randrange(0, 13), rng.randrange(0, 3), body))
            cells = [c for combo in body.values() for c in combo.values()]
            seen["zero"] += any(c == 0 for c in cells)
            seen["int"] += any(type(c) is int for c in cells)
            seen["Fraction"] += any(type(c) is F for c in cells)
            nonzero = {e: {s: c for s, c in combo.items() if c} for e, combo in body.items()}
            nonzero = {e: combo for e, combo in nonzero.items() if combo}
            seen["negative lead"] += bool(nonzero) and nonzero[max(nonzero)][max(nonzero[max(nonzero)])] < 0
            seen["zero form"] += not form.body
            exponent_counts.add(len(body))
            # every key is checked before a zero cell or an empty combo is dropped
            bad, param, key = with_bad_key(rng, body)
            with pytest.raises(ValueError) as info:
                ClosedForm(F(1), 2, 1, bad)
            assert str(info.value) == f"ClosedForm: {param} must be an integer, got {key!r}"
        assert exponent_counts == {0, 1, 2, 3, 4}
        assert min(seen.values()) >= 100, seen

    def test_cached_forms_match_the_reference(self, monkeypatch):
        # record the raw arguments the builders pass, rebuilding each cached form
        ranks = [*range(1, 42, 2), *range(4, 41, 2)]
        cached = [mean_square.mean_square_odd(r) if r % 2 else mean_square.mean_square_even(r) for r in ranks]
        raw = []

        def record(**kwargs):
            raw.append((kwargs["scalar"], kwargs["pi_exp"], kwargs["phi_exp"], kwargs["body"]))
            return ClosedForm(**kwargs)

        monkeypatch.setattr(mean_square, "ClosedForm", record)
        assert [mean_square._mean_square.__wrapped__(r) for r in ranks] == cached
        for r in range(2, 41, 2):
            mean_square.l_principal_closed_form(r)
        assert len(raw) == 21 + 1 + 19 + 20  # r = 1 adds its correction
        for args in raw:
            assert_matches_reference(args)


# Every public getter of a cached value, each with a nonempty result where its domain has one.
CACHED_GETTERS = {
    "sin_sum_exact": lambda: sin_sum_exact(6),
    "sigma0": lambda: mean_square.sigma0(0),
    "sigma1": lambda: mean_square.sigma1(2),
    "sigma2": lambda: mean_square.sigma2(2),
    "sigma0_prime": lambda: mean_square.sigma0_prime(2),
    "sigma1_prime": lambda: mean_square.sigma1_prime(3),
    "sigma2_prime": lambda: mean_square.sigma2_prime(3),
    "exp_product_real": lambda: exp_product_real(2, 3),
    "ClosedForm.body": lambda: mean_square.mean_square_odd(5).body,
}

# Each mutator of a dict, applied to a Laurent or to one of its combos.
MUTATORS = {
    "__setitem__": lambda t: t.__setitem__(7, F(1)),
    "__delitem__": lambda t: t.__delitem__(next(iter(t), 0)),
    "__ior__": lambda t: operator.ior(t, {7: F(1)}),
    "clear": lambda t: t.clear(),
    "pop": lambda t: t.pop(next(iter(t), 0)),
    "popitem": lambda t: t.popitem(),
    "setdefault": lambda t: t.setdefault(7, F(1)),
    "update": lambda t: t.update({7: F(1)}),
}


R5_FORM = ClosedForm(scalar=F(1, 187110), pi_exp=10, phi_exp=1, body={-10: {10: F(1), 4: F(-22), 2: F(-231)}})


class TestImmutability:
    def test_hash_agrees_with_equality(self):
        # the same form written unreduced and in another key order
        same = ClosedForm(scalar=F(-4, 225), pi_exp=10, phi_exp=1, body={-10: {2: F(5, 72), 4: F(5, 756), 10: F(-5, 16632)}})
        assert same == R5_FORM and hash(same) == hash(R5_FORM)
        zero = ClosedForm(scalar=F(1), pi_exp=10, phi_exp=1, body={})
        assert len({R5_FORM, same, zero}) == 2

    def test_body_cannot_be_changed(self):
        with pytest.raises(TypeError):
            R5_FORM.body[-2] = {}
        with pytest.raises(TypeError):
            R5_FORM.body[-10][10] = F(1)
        with pytest.raises(TypeError):
            R5_FORM.body.clear()
        assert R5_FORM.body == {-10: {10: F(1), 4: F(-22), 2: F(-231)}}

    def test_pickle_and_deepcopy(self):
        for again in (pickle.loads(pickle.dumps(R5_FORM)), copy.deepcopy(R5_FORM)):
            assert again == R5_FORM and hash(again) == hash(R5_FORM)
            for k in (7, 720720):
                assert evaluate_closed_form(again, k)._mpf_ == evaluate_closed_form(R5_FORM, k)._mpf_
            with pytest.raises(TypeError):
                again.body[-10][10] = F(1)

    def test_cached_values_refuse_every_change(self):
        # each cached getter hands out its value itself; every mutator raises
        # at the Laurent level and at the inner combo, and changes nothing
        for name, get in CACHED_GETTERS.items():
            value = get()
            pristine = {key: dict(v) if isinstance(v, dict) else v for key, v in value.items()}
            levels = [value] + [v for v in value.values() if isinstance(v, dict) and v]
            for level, table in enumerate(levels):
                for mutator, change in MUTATORS.items():
                    with pytest.raises(TypeError):
                        change(table)
                    assert get() is value and get() == pristine, (name, level, mutator)

    def test_built_values_refuse_every_change(self):
        # the power-sum expansion and R(n) are built on each call, read-only like every cached value
        for value in (mean_square.power_sum_real(3), mean_square.power_sum_real(6), recip_power_real_sum(5)):
            pristine = {key: dict(v) if isinstance(v, dict) else v for key, v in value.items()}
            for table in [value] + [v for v in value.values() if isinstance(v, dict)]:
                for mutator, change in MUTATORS.items():
                    with pytest.raises(TypeError):
                        change(table)
                    assert value == pristine, mutator

    def test_copies_of_cached_values(self):
        for name, get in CACHED_GETTERS.items():
            value = get()
            pristine = dict(value)
            for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                assert again == value and again is not value, name
                for table in [again] + [v for v in again.values() if isinstance(v, dict)]:
                    with pytest.raises(TypeError):
                        table.clear()
            for plain in (dict(value), value.copy()):
                assert type(plain) is dict and plain == value, name
                plain.clear()
            assert get() is value and get() == pristine, name

    def test_getters_return_one_object(self):
        assert sin_sum_exact(8) is sin_sum_exact(8)
        assert exp_product_real(3, 2) is exp_product_real(2, 3)
        assert mean_square.sigma2_prime(3) is mean_square.sigma2_prime(3)

    def test_input_body_is_not_shared(self):
        body = {-2: {2: F(1)}}
        form = ClosedForm(scalar=F(1, 6), pi_exp=2, phi_exp=0, body=body)
        body[-2][2] = F(5)
        body[0] = {1: F(1)}
        assert form.body == {-2: {2: F(1)}}


class TestRendering:
    def test_latex_single_term(self):
        assert render({2: F(1, 3)}, "latex") == r"\frac{1}{3} J_{2}(k)"

    def test_latex_two_terms(self):
        assert render({4: F(1, 45), 2: F(2, 9)}, "latex") == r"\frac{1}{45} J_{4}(k) + \frac{2}{9} J_{2}(k)"

    def test_empty_renders_zero(self):
        assert render({}, "text") == "0"
        assert render({}, "latex") == "0"

    def test_text_combo(self):
        assert render({6: F(2, 945), 4: F(1, 45), 2: F(8, 45)}, "text") == "2/945 J_6 + 1/45 J_4 + 8/45 J_2"

    def test_negative_coefficients(self):
        assert render({10: F(1), 4: F(-22), 2: F(-231)}, "text") == "J_10 - 22 J_4 - 231 J_2"

    def test_deterministic(self):
        combo = {2: F(5, 72), 10: F(-5, 16632), 4: F(5, 756)}
        assert render(combo, "json") == render(dict(sorted(combo.items())), "json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render({}, "html")


GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden_symbolic.json").read_text(encoding="utf-8"))
GOLDEN_FORMS = [text for texts in GOLDEN["closed_forms"].values() for text in texts]


class TestRenderCache:
    def test_copies_render_the_same_bytes(self):
        for text in GOLDEN_FORMS:
            form = parse_closed_form(text)
            renders = {fmt: render(form, fmt) for fmt in FORMATS}
            assert renders["json"] == text
            assert {fmt: render(form, fmt) for fmt in FORMATS} == renders
            for again in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form), parse_closed_form(text)):
                assert again == form and hash(again) == hash(form)
                assert {fmt: render(again, fmt) for fmt in reversed(FORMATS)} == renders

    def test_distinct_forms_render_distinct_bytes(self):
        forms = [parse_closed_form(text) for text in GOLDEN_FORMS]
        for fmt in FORMATS:
            assert len({render(form, fmt) for form in forms}) == len(forms), fmt

    def test_cache_is_not_part_of_the_value(self):
        form = parse_closed_form(GOLDEN_FORMS[0])
        render(form, "latex")
        fresh = parse_closed_form(GOLDEN_FORMS[0])
        assert fresh == form and hash(fresh) == hash(form) and repr(fresh) == repr(form)
        assert pickle.dumps(fresh) == pickle.dumps(form)


class TestJsonRoundTrip:
    def test_combo_round_trip(self):
        combo = {12: F(1382, 638512875), 2: F(256, 2079)}
        assert parse_jordan_combo(render(combo, "json")) == combo

    def test_closed_form_round_trip(self):
        form = ClosedForm(
            scalar=F(1, 1277025750),
            pi_exp=12,
            phi_exp=1,
            body={-12: {12: F(691), 6: F(2860), 4: F(63063), 2: F(573300)}},
        )
        again = parse_closed_form(render(form, "json"))
        assert again == form

    def test_round_trip_random_forms(self):
        rng = random.Random(5150)
        for _ in range(25):
            body = {
                rng.randrange(-12, 3): {
                    rng.randrange(1, 13): F(rng.randrange(-50, 50) or 1, rng.randrange(1, 99))
                    for _ in range(rng.randrange(1, 4))
                }
                for _ in range(rng.randrange(1, 3))
            }
            form = ClosedForm(scalar=F(rng.randrange(1, 9)), pi_exp=rng.randrange(0, 13), phi_exp=rng.randrange(0, 3), body=body)
            assert parse_closed_form(render(form, "json")) == form

    def test_schema_fields(self):
        form = ClosedForm(scalar=F(1, 6), pi_exp=2, phi_exp=0, body={-2: {2: F(1)}})
        data = json.loads(render(form, "json"))
        assert data == {"scalar": "1/6", "pi_exp": 2, "phi_exp": 0, "body": {"-2": {"2": "1/1"}}}


# Canonical combos: no zero coefficients.
coefficients = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
combos = st.dictionaries(st.integers(1, 30), coefficients.filter(bool), max_size=5)
forms = st.builds(
    ClosedForm,
    scalar=coefficients,
    pi_exp=st.integers(0, 30),
    phi_exp=st.integers(0, 3),
    body=st.dictionaries(st.integers(-40, 40), st.dictionaries(st.integers(1, 30), coefficients, max_size=4), max_size=3),
)


class TestProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(forms)
    def test_render_parse_identity(self, form):
        again = parse_closed_form(render(form, "json"))
        assert again == form and hash(again) == hash(form)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(combos, combos, combos)
    def test_jc_add_associative_and_commutative(self, a, b, c):
        assert jc_add(a, b) == jc_add(b, a)
        assert jc_add(jc_add(a, b), c) == jc_add(a, jc_add(b, c))
        assert all(jc_add(a, b).values())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(combos)
    def test_jc_add_cancels_negation(self, a):
        assert jc_add(a, jc_scale(a, -1)) == {}
