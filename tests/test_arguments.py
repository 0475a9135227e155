"""One rule for every integer argument and integer table key of the public API.

Each integer parameter takes an ``int`` (not a ``bool``), of at least its
least value where it has one.  Anything else raises ``ValueError`` with
``<function>: <param> must be >= <least>, got <value>`` for an int below
the least, and ``<function>: <param> must be an integer >= <least>, got
<value!r>`` (``must be an integer, got <value!r>`` with no least) for any
other value.  The k-exponents and Jordan indices of a table follow the same
rule wherever a table is turned into integers.
"""

import importlib
import inspect
from fractions import Fraction

import pytest
from mpmath import mp

from meansq import (
    ClosedForm,
    DirichletCharacter,
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
    jordan_totient,
    kl_shift,
    l_principal_closed_form,
    l_value_numeric,
    mean_square_even,
    mean_square_numeric,
    mean_square_odd,
    parse_closed_form,
    parse_jordan_combo,
    power_exp_identity_check,
    power_sum_real,
    realjs_rhs_exact,
    recip_power_real_sum,
    render,
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

# (function, valid arguments, {integer parameter: its least value, or None for any int})
CONTRACTS = [
    (binomial, (5, 2), {"n": 0, "k": None}),
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
    (jordan_totient, (2, 12), {"s": 1, "k": 1}),
    (euler_phi, (12,), {"k": 1}),
    (coprime_residues, (12,), {"k": 1}),
    (character_group, (12,), {"k": 1}),
    (characters_with_parity, (12, "odd"), {"k": 3}),
    (l_value_numeric, (3, ODD_CHARACTER, 64), {"r": 1, "precision_bits": 53}),
    (mean_square_numeric, (3, 7, 64), {"r": 1, "k": 3, "precision_bits": 53}),
    (exp_sum_direct, (1, 1, 5, 64), {"p": 1, "q": 1, "k": 3, "precision_bits": 53}),
    (power_exp_identity_check, (2, 1, 5, 64), {"n": 1, "m": None, "k": 3, "precision_bits": 53}),
    (sin_sum_exact, (4,), {"n": 0}),
    (sin_sum_numeric, (4, 7, 64), {"n": 0, "k": 3, "precision_bits": 53}),
    (recip_power_real_sum, (2,), {"n": 1}),
    (ClosedForm, (Fraction(1), 2, 1, {0: {2: Fraction(1)}}), {"pi_exp": 0, "phi_exp": 0}),
    (evaluate_jordan, ({2: Fraction(1)}, 12), {"k": 1}),
    (evaluate_laurent, ({-2: {2: Fraction(1)}}, 12), {"k": 1}),
    (evaluate_closed_form, (FORM, 12, 64), {"k": 3, "precision_bits": 53}),
    (kl_shift, ({0: {1: Fraction(1)}}, 2), {"t": None}),
    (ODD_CHARACTER.unit_exponent, (2,), {"m": None}),
    (ODD_CHARACTER.value, (2,), {"m": None}),
]

# A record built by character_group, which checks k.
EXEMPT = {("CharacterGroup", "modulus")}

NON_INTEGERS = (12.5, 12.0, True, "12", None)


def _cases():
    for fn, valid, leasts in CONTRACTS:
        params = list(inspect.signature(fn).parameters)
        for param, least in leasts.items():
            below = () if least is None else (least - 1,)
            for value in (*NON_INTEGERS, *below):
                yield pytest.param(fn, valid, params.index(param), param, least, value,
                                   id=f"{fn.__qualname__}-{param}-{value!r}")


@pytest.mark.parametrize("fn,valid,index,param,least,value", list(_cases()))
def test_integer_parameter_is_checked(fn, valid, index, param, least, value):
    args = list(valid)
    args[index] = value
    name = fn.__qualname__
    if type(value) is int:
        message = f"{name}: {param} must be >= {least}, got {value}"
    elif least is None:
        message = f"{name}: {param} must be an integer, got {value!r}"
    else:
        message = f"{name}: {param} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_every_integer_parameter_is_in_the_table():
    # the public functions and classes, and the public methods of each public class
    covered = {(fn.__qualname__, param) for fn, _, leasts in CONTRACTS for param in leasts}
    declared = set()
    for module in MODULES:
        mod = importlib.import_module(f"meansq.{module}")
        for public in mod.__all__:
            obj = getattr(mod, public)
            callables = [(public, obj)]
            if inspect.isclass(obj):
                callables += [(f"{public}.{name}", method) for name, method in vars(obj).items()
                              if not name.startswith("_") and inspect.isfunction(method)]
            for name, fn in callables:
                try:
                    parameters = inspect.signature(fn).parameters.values()
                except (TypeError, ValueError):
                    continue  # type aliases and exception classes
                declared |= {(name, p.name) for p in parameters if p.annotation in ("int", int)}
    assert declared - EXEMPT == covered


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: jordan_totient(2, 12.5), "jordan_totient: k must be an integer >= 1, got 12.5"),
        (lambda: euler_phi(7.5), "euler_phi: k must be an integer >= 1, got 7.5"),
        (lambda: evaluate_closed_form(mean_square_odd(3), 10.0), "evaluate_closed_form: k must be an integer >= 3, got 10.0"),
        (lambda: mean_square_numeric(3, 7, 100.5), "mean_square_numeric: precision_bits must be an integer >= 53, got 100.5"),
    ],
    ids=["jordan_totient", "euler_phi", "evaluate_closed_form", "mean_square_numeric"],
)
def test_non_integer_modulus_and_precision_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


KEYS = (0.5, 2.0, True, "2", None)

# (function, table key, a call of it with a table whose keys at that level are ``keys``)
KEY_CALLS = [
    ("ClosedForm", "k-exponent", lambda keys: ClosedForm(Fraction(1), 2, 1, {key: {2: Fraction(1)} for key in keys})),
    ("ClosedForm", "Jordan index", lambda keys: ClosedForm(Fraction(1), 2, 1, {0: dict.fromkeys(keys, Fraction(1))})),
    ("evaluate_jordan", "Jordan index", lambda keys: evaluate_jordan(dict.fromkeys(keys, Fraction(1)), 7)),
    ("evaluate_laurent", "k-exponent", lambda keys: evaluate_laurent({key: {2: Fraction(1)} for key in keys}, 7)),
    ("evaluate_laurent", "Jordan index", lambda keys: evaluate_laurent({0: dict.fromkeys(keys, Fraction(1))}, 7)),
    ("render", "Jordan index", lambda keys: render(dict.fromkeys(keys, Fraction(1)), "json")),
    ("kl_shift", "k-exponent", lambda keys: kl_shift({key: {2: Fraction(1)} for key in keys}, 1)),
    ("kl_shift", "Jordan index", lambda keys: kl_shift({0: dict.fromkeys(keys, Fraction(1))}, 1)),
]
KEY_IDS = [f"{fn}-{param}" for fn, param, _ in KEY_CALLS]


@pytest.mark.parametrize("key", KEYS, ids=repr)
@pytest.mark.parametrize("function,param,call", KEY_CALLS, ids=KEY_IDS)
def test_table_key_is_checked(function, param, call, key):
    with pytest.raises(ValueError) as info:
        call((key,))
    assert str(info.value) == f"{function}: {param} must be an integer, got {key!r}"


@pytest.mark.parametrize(
    "body,param,key",
    [
        ({0.5: {2: Fraction(0)}}, "k-exponent", 0.5),
        ({0: {"x": Fraction(0)}, 1: {2: Fraction(1)}}, "Jordan index", "x"),
        ({True: {2: Fraction(0)}}, "k-exponent", True),
        ({0: {2.0: Fraction(0)}}, "Jordan index", 2.0),
        ({0.5: {}}, "k-exponent", 0.5),
    ],
    ids=["float-exponent", "string-index-beside-a-form", "bool-exponent", "float-index", "empty-combo"],
)
def test_key_of_a_zero_coefficient_is_checked(body, param, key):
    # zero coefficients and empty combos are dropped only after every key is checked
    with pytest.raises(ValueError) as info:
        ClosedForm(Fraction(1), 2, 1, body)
    assert str(info.value) == f"ClosedForm: {param} must be an integer, got {key!r}"


@pytest.mark.parametrize("key", KEYS, ids=repr)
@pytest.mark.parametrize("function,param,call", KEY_CALLS, ids=KEY_IDS)
def test_key_beside_an_int_key_is_checked(function, param, call, key):
    # "2" and None do not compare with 3, so ordering the keys must not pre-empt the key rule
    for keys in ((key, 3), (3, key)):
        with pytest.raises(ValueError) as info:
            call(keys)
        assert str(info.value) == f"{function}: {param} must be an integer, got {key!r}", keys


@pytest.mark.parametrize("key", [key for key in KEYS if not isinstance(key, str)], ids=repr)
def test_parsed_key_is_checked(key):
    # only a string, the JSON form of a key, is read with int()
    with pytest.raises(ValueError) as info:
        parse_jordan_combo({key: "1", 3: "1"})
    assert str(info.value) == f"parse_jordan_combo: Jordan index must be an integer, got {key!r}"
    data = {"scalar": "1", "pi_exp": 2, "phi_exp": 1, "body": {key: {"2": "1"}, "3": {"2": "1"}}}
    with pytest.raises(ValueError) as info:
        parse_closed_form(data)
    assert str(info.value) == f"ClosedForm: k-exponent must be an integer, got {key!r}"


@pytest.mark.parametrize("param,value", [("pi_exp", 2.7), ("pi_exp", 2.0), ("phi_exp", True), ("phi_exp", None)])
def test_parsed_exponent_is_checked(param, value):
    data = {"scalar": "1", "pi_exp": 2, "phi_exp": 1, "body": {"0": {"2": "1"}}, param: value}
    with pytest.raises(ValueError) as info:
        parse_closed_form(data)
    assert str(info.value) == f"ClosedForm: {param} must be an integer >= 0, got {value!r}"


# (function, a call of it with a table whose coefficient at Jordan index 2 is ``c``)
COEFFICIENT_CALLS = [
    ("ClosedForm", lambda c: ClosedForm(Fraction(1), 2, 1, {0: {2: c}})),
    ("ClosedForm", lambda c: ClosedForm(Fraction(1), 2, 1, {1: {4: Fraction(1)}, 0: {3: 1, 2: c}})),
    ("evaluate_jordan", lambda c: evaluate_jordan({2: c}, 7)),
    ("evaluate_laurent", lambda c: evaluate_laurent({0: {2: c}}, 7)),
    *[("render", lambda c, format=format: render({2: c}, format)) for format in ("json", "latex", "text")],
    ("kl_shift", lambda c: kl_shift({0: {2: c}}, 1)),
]


@pytest.mark.parametrize("c", (0.5, 0.0, "1/3", True, None), ids=repr)
@pytest.mark.parametrize("function,call", COEFFICIENT_CALLS, ids=["form", "form-lower", "jordan", "laurent", "render-json", "render-latex", "render-text", "shift"])
def test_coefficient_is_checked(function, call, c):
    # a coefficient is an int (not a bool) or a Fraction, zero coefficients included
    with pytest.raises(ValueError) as info:
        call(c)
    assert str(info.value) == f"{function}: coefficient of Jordan index 2 must be an int or a Fraction, got {c!r}"


@pytest.mark.parametrize(
    "a,message",
    [
        ({0.5: {2: Fraction(1)}}, "k-exponent must be an integer, got 0.5"),
        ({True: {2: Fraction(1)}}, "k-exponent must be an integer, got True"),
        ({"a": {2: Fraction(1)}}, "k-exponent must be an integer, got 'a'"),
        ({0: {2.0: Fraction(1)}}, "Jordan index must be an integer, got 2.0"),
        ({0: {"x": Fraction(1)}}, "Jordan index must be an integer, got 'x'"),
        ({0: {2: 0.5}}, "coefficient of Jordan index 2 must be an int or a Fraction, got 0.5"),
    ],
    ids=["float-exponent", "bool-exponent", "word-exponent", "float-index", "word-index", "float-coefficient"],
)
def test_shifted_table_follows_the_table_rule(a, message):
    # kl_shift neither shifts a float or bool exponent nor passes a bad key or coefficient through
    with pytest.raises(ValueError) as info:
        kl_shift(a, 1)
    assert str(info.value) == f"kl_shift: {message}"


@pytest.mark.parametrize("scalar", ("x", None, 0.1, 1.0, True), ids=repr)
def test_scalar_is_checked(scalar):
    # the coefficient rule: a float or a bool scalar is refused, not converted
    with pytest.raises(ValueError) as info:
        ClosedForm(scalar, 2, 1, {0: {2: Fraction(1)}})
    assert str(info.value) == f"ClosedForm: scalar must be an int or a Fraction, got {scalar!r}"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: evaluate_jordan(mean_square_odd(5), 7), "evaluate_jordan: combo must be a mapping, got ClosedForm"),
        (lambda: evaluate_jordan(None, 7), "evaluate_jordan: combo must be a mapping, got NoneType"),
        (lambda: evaluate_jordan([1, 2], 7), "evaluate_jordan: combo must be a mapping, got list"),
        (lambda: evaluate_laurent({0: 5}, 7), "evaluate_laurent: laurent[0] must be a mapping, got int"),
        (lambda: evaluate_laurent(sin_sum_exact(4).items(), 7), "evaluate_laurent: laurent must be a mapping, got dict_items"),
        (lambda: ClosedForm(Fraction(1), 2, 1, {0: 5}), "ClosedForm: body[0] must be a mapping, got int"),
        (lambda: ClosedForm(Fraction(1), 2, 1, {1: {2: Fraction(1)}, 0: None}), "ClosedForm: body[0] must be a mapping, got NoneType"),
        (lambda: ClosedForm(Fraction(1), 2, 1, [{2: Fraction(1)}]), "ClosedForm: body must be a mapping, got list"),
        (lambda: render([1, 2], "text"), "render: obj must be a mapping, got list"),
        (lambda: render(None, "json"), "render: obj must be a mapping, got NoneType"),
        (lambda: evaluate_closed_form({0: {2: Fraction(1)}}, 7), "evaluate_closed_form: form must be a ClosedForm, got dict"),
        (lambda: evaluate_closed_form(None, 7), "evaluate_closed_form: form must be a ClosedForm, got NoneType"),
        (lambda: kl_shift({0: 5}, 1), "kl_shift: a[0] must be a mapping, got int"),
        (lambda: kl_shift([(0, {1: Fraction(1)})], 1), "kl_shift: a must be a mapping, got list"),
    ],
    ids=[
        "jordan-form", "jordan-none", "jordan-list", "laurent-int-combo", "laurent-items",
        "form-int-combo", "form-none-combo", "form-list", "render-list", "render-none",
        "closed-form-dict", "closed-form-none", "shift-int-combo", "shift-list",
    ],
)
def test_table_that_is_not_a_mapping_is_refused(call, message):
    # each level of a table is a mapping; anything else names the function and the parameter
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("chi", ("chi", None, 5), ids=repr)
def test_character_is_checked(chi):
    with pytest.raises(ValueError) as info:
        l_value_numeric(3, chi)
    assert str(info.value) == f"l_value_numeric: chi must be a DirichletCharacter, got {type(chi).__name__}"


@pytest.mark.parametrize(
    "k,exponents",
    [(7, (1, 5, 9)), (7, ()), (7, (0.5,)), (7, (True,)), (7, [1]), (7, "1"), (8, (1,)), (1, (0,)), (2, (1,))],
    ids=repr,
)
def test_character_exponents_are_checked(k, exponents):
    # one int per cyclic factor, as a tuple: nothing is dropped, padded or read later
    group = character_group(k)
    with pytest.raises(ValueError) as info:
        DirichletCharacter(group, exponents)
    assert str(info.value) == (
        f"DirichletCharacter: exponents must be a tuple of ints, one per cyclic factor "
        f"({len(group.orders)} mod {k}), got {exponents!r}"
    )


@pytest.mark.parametrize("group", ("x", None, 5), ids=repr)
def test_character_group_is_checked(group):
    with pytest.raises(ValueError) as info:
        DirichletCharacter(group, (1,))
    assert str(info.value) == f"DirichletCharacter: group must be a CharacterGroup, got {type(group).__name__}"


@pytest.mark.parametrize("m,chi_m", [(-3, 2), (7, 2), (-1, 4), (10, 5)], ids=repr)
def test_character_reads_every_int(m, chi_m):
    # negative residues and residues past the modulus read as their class mod 5
    assert ODD_CHARACTER.value(m) == ODD_CHARACTER.value(chi_m)
    assert ODD_CHARACTER.unit_exponent(m) == ODD_CHARACTER.unit_exponent(chi_m)


@pytest.mark.parametrize("k,exponents,reduced", [(7, (7,), (1,)), (8, (3, -1), (1, 1)), (1, (), ()), (2, (), ())], ids=repr)
def test_character_exponents_are_reduced(k, exponents, reduced):
    assert DirichletCharacter(character_group(k), exponents).exponents == reduced


BAD_TOLERANCES = ("x", "1e-10", None, True, Fraction(1, 10), -1, -1e-300, float("nan"), float("inf"), mp.mpf("-inf"), mp.nan)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_tolerance_is_checked(tol):
    # the CLI's --tol rule: a finite non-negative number, never a silent False
    with pytest.raises(ValueError) as info:
        power_exp_identity_check(2, 1, 5, 64, tol)
    assert str(info.value) == f"power_exp_identity_check: tol must be a finite non-negative int, float or mpf, got {tol!r}"


@pytest.mark.parametrize("tol", (1, 1e-10, mp.mpf(2) ** -40, 0, 0.0, mp.mpf(2) ** -2000), ids=repr)
def test_finite_non_negative_tolerance_is_read(tol):
    # at 64 bits the two sides agree far below 2^-40, but not exactly: 0 and 2^-2000 read False
    assert power_exp_identity_check(2, 1, 5, 64, tol) is (tol >= 2**-40)


def test_int_and_fraction_coefficients_are_read():
    assert ClosedForm(Fraction(1), 2, 1, {0: {2: 2, 1: Fraction(4)}}) == ClosedForm(Fraction(2), 2, 1, {0: {2: 1, 1: 2}})
    assert evaluate_jordan({2: 1, 1: Fraction(1, 2)}, 7) == 51
    assert evaluate_laurent({-1: {2: 7}}, 7) == 48
    assert ClosedForm(3, 2, 1, {0: {2: 1}}) == ClosedForm(Fraction(3), 2, 1, {0: {2: Fraction(1)}})
    assert render({2: 1, 1: Fraction(1, 2)}, "text") == "J_2 + 1/2 J_1"


FORM_DATA = {"scalar": "1", "pi_exp": 2, "phi_exp": 1, "body": {"0": {"2": "1"}}}
BAD_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


MALFORMED = [
    ("combo-float-key", parse_jordan_combo, {"2.5": "1"}, "parse_jordan_combo: Jordan index must be an integer, got '2.5'"),
    ("combo-word-key", parse_jordan_combo, {"x": "1"}, "parse_jordan_combo: Jordan index must be an integer, got 'x'"),
    ("combo-list", parse_jordan_combo, "[1, 2]", "parse_jordan_combo: data must be a JSON object, got list"),
    ("form-float-pi_exp", parse_closed_form, {**FORM_DATA, "pi_exp": "2.5"}, "parse_closed_form: pi_exp must be an integer, got '2.5'"),
    ("form-word-phi_exp", parse_closed_form, {**FORM_DATA, "phi_exp": "x"}, "parse_closed_form: phi_exp must be an integer, got 'x'"),
    ("form-float-exponent", parse_closed_form, {**FORM_DATA, "body": {"0.5": {"2": "1"}}}, "parse_closed_form: k-exponent must be an integer, got '0.5'"),
    ("form-word-index", parse_closed_form, {**FORM_DATA, "body": {"0": {"x": "1"}}}, "parse_jordan_combo: Jordan index must be an integer, got 'x'"),
    ("form-list-body", parse_closed_form, {**FORM_DATA, "body": [1]}, "parse_closed_form: body must be a JSON object, got list"),
    ("form-list-combo", parse_closed_form, {**FORM_DATA, "body": {"0": [1]}}, "parse_jordan_combo: data must be a JSON object, got list"),
    ("form-list", parse_closed_form, "[1, 2]", "parse_closed_form: data must be a JSON object, got list"),
    ("form-number", parse_closed_form, "7", "parse_closed_form: data must be a JSON object, got int"),
    ("combo-word-coefficient", parse_jordan_combo, {"2": "x"}, "parse_jordan_combo: coefficient of Jordan index 2 must be a rational number, got 'x'"),
    ("combo-null-coefficient", parse_jordan_combo, {"2": None}, "parse_jordan_combo: coefficient of Jordan index 2 must be a rational number, got None"),
    ("combo-infinite-coefficient", parse_jordan_combo, '{"2": Infinity}', "parse_jordan_combo: coefficient of Jordan index 2 must be a rational number, got inf"),
    ("combo-bad-json", parse_jordan_combo, "{bad", f"parse_jordan_combo: data must be a JSON object, got invalid JSON ({BAD_JSON})"),
    ("form-zero-denominator-scalar", parse_closed_form, {**FORM_DATA, "scalar": "1/0"}, "parse_closed_form: scalar must be a rational number, got '1/0'"),
    ("form-list-scalar", parse_closed_form, {**FORM_DATA, "scalar": [1]}, "parse_closed_form: scalar must be a rational number, got [1]"),
    ("form-zero-denominator-coefficient", parse_closed_form, {**FORM_DATA, "body": {"0": {"2": "1/0"}}}, "parse_jordan_combo: coefficient of Jordan index 2 must be a rational number, got '1/0'"),
    ("form-bad-json", parse_closed_form, "{bad", f"parse_closed_form: data must be a JSON object, got invalid JSON ({BAD_JSON})"),
    ("form-bad-json-body", parse_closed_form, {**FORM_DATA, "body": "{bad"}, f"parse_closed_form: body must be a JSON object, got invalid JSON ({BAD_JSON})"),
    *[
        (f"form-no-{key}", parse_closed_form, {k: v for k, v in FORM_DATA.items() if k != key}, f"parse_closed_form: data has no key {key!r}")
        for key in FORM_DATA
    ],
]


@pytest.mark.parametrize("parse,data,message", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_json_names_the_parser(parse, data, message):
    with pytest.raises(ValueError) as info:
        parse(data)
    assert info.type is ValueError
    assert str(info.value) == message


def test_parsers_read_strings_and_ints():
    # strings are the JSON form; ints pass the integer rule unchanged
    want = ClosedForm(Fraction(1, 3), 2, 1, {-1: {4: Fraction(1)}, 0: {2: Fraction(-2)}})
    for data in (
        {"scalar": "1/3", "pi_exp": 2, "phi_exp": 1, "body": {"-1": {"4": "1"}, "0": {"2": "-2"}}},
        {"scalar": "1/3", "pi_exp": "2", "phi_exp": "1", "body": {-1: {4: "1"}, 0: {2: "-2"}}},
    ):
        assert parse_closed_form(data) == want
    assert parse_jordan_combo({"4": "1/3", 2: "0", 1: "-1"}) == {4: Fraction(1, 3), 1: Fraction(-1)}


def test_key_equal_to_a_cached_sine_sum_key_is_refused():
    # sin_sum_exact(0) == {1: 1} carries a plan, and {True: 1} equals it;
    # sin_sum_exact(2) == {2: 1/3} carries one, and {2.0: 1/3} equals it
    assert sin_sum_exact(0) == {True: Fraction(1)}
    assert sin_sum_exact(2) == {2.0: Fraction(1, 3)}
    for combo in ({True: Fraction(1)}, {2.0: Fraction(1, 3)}):
        with pytest.raises(ValueError, match="evaluate_jordan: Jordan index must be an integer"):
            evaluate_jordan(combo, 7)
    assert evaluate_jordan(sin_sum_exact(2), 7) == 16


def test_coefficient_equal_to_a_cached_sine_sum_coefficient_is_refused():
    # sin_sum_exact(0) == {1: 1} carries a plan, and {1: True} and {1: 1.0} equal it
    for c in (True, 1.0):
        assert sin_sum_exact(0) == {1: c}
        with pytest.raises(ValueError, match="evaluate_jordan: coefficient of Jordan index 1 must be an int or a Fraction"):
            evaluate_jordan({1: c}, 7)
    assert evaluate_jordan({1: 1}, 7) == evaluate_jordan(sin_sum_exact(0), 7) == 6
