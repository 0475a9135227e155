"""One rule for every integer argument of the public API.

Each integer parameter with a least value takes an ``int`` (not a ``bool``)
of at least that value.  Anything else raises ``ValueError`` with
``<function>: <param> must be >= <least>, got <value>`` for an int below
the least, and ``<function>: <param> must be an integer >= <least>, got
<value!r>`` for any other value.
"""

import importlib
import inspect
from fractions import Fraction

import pytest

from meansq import (
    ClosedForm,
    binomial,
    bernoulli,
    character_group,
    characters_with_parity,
    coprime_residues,
    deriv_coeff,
    euler_phi,
    evaluate_closed_form,
    evaluate_jordan,
    evaluate_laurent,
    exp_product_real,
    exp_sum_direct,
    factorial,
    factorize,
    jordan_totient,
    l_principal_closed_form,
    l_value_numeric,
    mean_square_even,
    mean_square_numeric,
    mean_square_odd,
    power_exp_identity_check,
    power_sum_real,
    realjs_rhs_exact,
    recip_power_real_sum,
    sigma0,
    sigma0_prime,
    sigma1,
    sigma1_prime,
    sigma2,
    sigma2_prime,
    sin_sum_exact,
    sin_sum_numeric,
)

MODULES = ("exact", "mean_square", "multiplicative", "oracle", "sine_sums", "symbolic")
FORM = ClosedForm(Fraction(1), 2, 1, {0: {2: Fraction(1)}})
ODD_CHARACTER = characters_with_parity(5, "odd")[0]

# (function, valid arguments, {integer parameter: its least value})
CONTRACTS = [
    (binomial, (5, 2), {"n": 0}),
    (factorial, (5,), {"n": 0}),
    (bernoulli, (4,), {"n": 0}),
    (deriv_coeff, (3, 2), {"q": 0, "j": 1}),
    (exp_product_real, (1, 2), {"p": 1, "q": 1}),
    (power_sum_real, (2,), {"p": 1}),
    (sigma0, (1,), {"h": 0}),
    (sigma1, (1,), {"h": 1}),
    (sigma2, (1,), {"h": 1}),
    (sigma0_prime, (2,), {"h": 2}),
    (sigma1_prime, (2,), {"h": 2}),
    (sigma2_prime, (2,), {"h": 2}),
    (mean_square_odd, (5,), {"r": 1}),
    (mean_square_even, (6,), {"r": 4}),
    (l_principal_closed_form, (4,), {"r": 2}),
    (realjs_rhs_exact, (1, 2, 5), {"p": 1, "q": 1, "k": 3}),
    (factorize, (12,), {"n": 1}),
    (jordan_totient, (2, 12), {"s": 1, "k": 1}),
    (euler_phi, (12,), {"k": 1}),
    (coprime_residues, (12,), {"k": 1}),
    (character_group, (12,), {"k": 1}),
    (characters_with_parity, (12, "odd"), {"k": 3}),
    (l_value_numeric, (3, ODD_CHARACTER, 64), {"r": 1, "precision_bits": 53}),
    (mean_square_numeric, (3, 7, 64), {"r": 1, "k": 3, "precision_bits": 53}),
    (exp_sum_direct, (1, 1, 5, 64), {"p": 1, "q": 1, "k": 3, "precision_bits": 53}),
    (power_exp_identity_check, (2, 1, 5, 64), {"n": 1, "k": 3, "precision_bits": 53}),
    (sin_sum_exact, (4,), {"n": 0}),
    (sin_sum_numeric, (4, 7, 64), {"n": 0, "k": 3, "precision_bits": 53}),
    (recip_power_real_sum, (2,), {"n": 1}),
    (ClosedForm, (Fraction(1), 2, 1, {0: {2: Fraction(1)}}), {"pi_exp": 0, "phi_exp": 0}),
    (evaluate_jordan, ({2: Fraction(1)}, 12), {"k": 1}),
    (evaluate_laurent, ({-2: {2: Fraction(1)}}, 12), {"k": 1}),
    (evaluate_closed_form, (FORM, 12, 64), {"k": 3, "precision_bits": 53}),
]

# Integer parameters with no least value, each with its own rule.
EXEMPT = {
    ("binomial", "k"),  # any int: C(n, k) is 0 outside [0, n]
    ("power_exp_identity_check", "m"),  # any int coprime to k: the gcd rule
    ("kl_shift", "t"),  # any int: a shift of every k-exponent
    ("CharacterGroup", "modulus"),  # a record built by character_group, which checks k
}

NON_INTEGERS = (12.5, 12.0, True, "12", None)


def _cases():
    for fn, valid, leasts in CONTRACTS:
        params = list(inspect.signature(fn).parameters)
        for param, least in leasts.items():
            for value in (*NON_INTEGERS, least - 1):
                yield pytest.param(fn, valid, params.index(param), param, least, value,
                                   id=f"{fn.__name__}-{param}-{value!r}")


@pytest.mark.parametrize("fn,valid,index,param,least,value", list(_cases()))
def test_integer_parameter_is_checked(fn, valid, index, param, least, value):
    args = list(valid)
    args[index] = value
    name = fn.__name__
    if type(value) is int:
        message = f"{name}: {param} must be >= {least}, got {value}"
    else:
        message = f"{name}: {param} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_every_integer_parameter_is_in_the_table():
    covered = {(fn.__name__, param) for fn, _, leasts in CONTRACTS for param in leasts}
    declared = set()
    for module in MODULES:
        mod = importlib.import_module(f"meansq.{module}")
        for public in mod.__all__:
            obj = getattr(mod, public)
            try:
                parameters = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue  # type aliases and exception classes
            declared |= {(public, p.name) for p in parameters if p.annotation in ("int", int)}
    assert declared - EXEMPT == covered


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: jordan_totient(2, 12.5), "jordan_totient: k must be an integer >= 1, got 12.5"),
        (lambda: euler_phi(7.5), "euler_phi: k must be an integer >= 1, got 7.5"),
        (lambda: factorize(12.5), "factorize: n must be an integer >= 1, got 12.5"),
        (lambda: evaluate_closed_form(mean_square_odd(3), 10.0), "evaluate_closed_form: k must be an integer >= 3, got 10.0"),
        (lambda: mean_square_numeric(3, 7, 100.5), "mean_square_numeric: precision_bits must be an integer >= 53, got 100.5"),
    ],
    ids=["jordan_totient", "euler_phi", "factorize", "evaluate_closed_form", "mean_square_numeric"],
)
def test_non_integer_modulus_and_precision_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
