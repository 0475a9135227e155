"""Closed-form algebra over Jordan totient symbols.

Three layers, all exact and all with value semantics:

* ``JordanCombo``  -- sparse map ``{s: coeff}`` for sum_s coeff * J_s(k),
  stored with no zero coefficients so dict equality is canonical equality.
* ``KLaurent``     -- sparse map ``{e: JordanCombo}`` for
  sum_e k^e * combo_e(k), stored with no empty combos.
* ``ClosedForm``   -- scalar * pi^pi_exp * phi(k)^phi_exp * body(k), the
  shape every final closed form takes.

``ClosedForm`` is canonicalized on construction, from the integer plan of
the raw body: that plan checks every key, zero coefficients included, and
puts every coefficient over one lcm.  The gcd of the nonzero integers, signed
like the leading one (highest k-exponent, then highest Jordan index), is
folded into the scalar, so body coefficients are coprime integers with a
positive lead.  That makes structural equality agree with mathematical
equality for the forms produced here, and makes renders reproduce the
familiar presentation (e.g. a single 1/187110 prefactor).

Every shared value, a ``ClosedForm`` body or a cached table, is a read-only
dict (``_Frozen``) handed out as it is, so a form is immutable and hashable.
Every one of ``Fraction``s comes from integer rows through ``_fractions``.

Each form carries its evaluation plan, built once by ``_int_plan``, as every
plan is, from its canonical integers: the lowest k-exponent, the (Jordan
index, integer coefficient) pairs of each exponent and the distinct Jordan
indices.  Evaluating at k reads only the plan and k's table of the J_s(k), then sums in integers, with one reduction
at the end.  That table lives in ``multiplicative``'s cache of the last 16
moduli: every evaluation at one k, of forms and sine sums alike, shares one
factorization of k and forms each J_s(k) once.  ``evaluate_laurent`` and
``evaluate_jordan`` plan their argument on each call, but a cached sine sum
carries its plan, whose integer row ``sine_sums`` reads in its expansion.
``evaluate_closed_form`` rounds the exact ratio times a cached power of pi
in integers, with the roundings of mpmath's arithmetic.

Renders of a ``ClosedForm`` are cached on the form, one string per format,
filled on first use: the form is immutable, so the bytes cannot change.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import MPZ

from .multiplicative import _check_int, _jordan_table

__all__ = [
    "JordanCombo",
    "KLaurent",
    "ClosedForm",
    "kl_shift",
    "evaluate_jordan",
    "evaluate_laurent",
    "evaluate_closed_form",
    "render",
    "parse_jordan_combo",
    "parse_closed_form",
]

JordanCombo = dict[int, Fraction]
KLaurent = dict[int, JordanCombo]


def _check_mapping(caller: str, param: str, value) -> None:
    """A mapping, or a ``ValueError`` naming ``caller`` and ``param``."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{caller}: {param} must be a mapping, got {type(value).__name__}")


def kl_shift(a: KLaurent, t: int) -> KLaurent:
    """Multiply by k^t (shift every exponent by t)."""
    _check_int("kl_shift", "t", t)
    _check_laurent("kl_shift", "a", a)
    return {e + t: dict(combo) for e, combo in a.items()}


class _Frozen(dict):
    """A read-only dict, hashed by its items; ``dict(v)`` and ``v.copy()`` give a plain one.

    A pickle or copy is an equal ``_Frozen`` without ``_plan``, which only a
    cached sine sum sets (``sine_sums._sin``), for ``evaluate_jordan`` to read.
    """

    __slots__ = ("_plan",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a cached table or ClosedForm body cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _Frozen, (dict(self),)


def _fractions(rows: Mapping[int, Mapping[int, int]], den: int) -> _Frozen:
    """The read-only view {e: {s: rows[e][s] / den}} of integer rows, one ``Fraction`` per cell."""
    return _Frozen({e: _Frozen({s: Fraction(c, den) for s, c in row.items()}) for e, row in rows.items()})


def _check_rational(caller: str, param: str, value) -> None:
    """An int (not a bool) or a ``Fraction``, or a ``ValueError`` naming ``caller`` and ``param``."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise ValueError(f"{caller}: {param} must be an int or a Fraction, got {value!r}")


def _check_laurent(caller: str, param: str, laurent) -> None:
    """Both levels mappings, every k-exponent and Jordan index an int, every coefficient an int or a ``Fraction``."""
    _check_mapping(caller, param, laurent)
    for e, combo in laurent.items():
        _check_int(caller, "k-exponent", e)
        _check_mapping(caller, f"{param}[{e!r}]", combo)
        for s, c in combo.items():
            _check_int(caller, "Jordan index", s)
            _check_rational(caller, f"coefficient of Jordan index {s}", c)


def _int_plan(rows: Mapping[int, Mapping[int, int]], num: int, den: int, phi_exp: int = 0) -> tuple:
    """Integer evaluation plan of num / den * phi(k)^phi_exp * sum_e k^e sum_s rows[e][s] J_s(k).

    The plan is (num, den, phi_exp, low, rows, indices): the lowest
    k-exponent, one row (e - low, ((s, c), ...)) per exponent in key order,
    and the ascending distinct Jordan indices (with 1 when phi_exp > 0), so
    one Jordan table serves the whole evaluation.
    """
    low = min(rows) if rows else 0
    indices = {s for row in rows.values() for s in row}
    if phi_exp:
        indices.add(1)
    shifted = tuple([(e - low, tuple(row.items())) for e, row in rows.items()])
    return num, den, phi_exp, low, shifted, tuple(sorted(indices))


def _build_plan(laurent, caller: str, param: str = "laurent") -> tuple:
    """Integer evaluation plan of a table: its coefficients over the lcm of their denominators.

    ``_check_laurent`` checks every level, key and coefficient first, naming
    ``caller`` and ``param``: this is where every outside table turns into
    integers.
    """
    _check_laurent(caller, param, laurent)
    # A list, not a generator: on CPython 3.11, unpacking generators of
    # varying length into arguments left ~1 MB more peak RSS in a warm session.
    den = math.lcm(*[c.denominator for combo in laurent.values() for c in combo.values()])
    rows = {e: {s: c.numerator * (den // c.denominator) for s, c in combo.items()} for e, combo in laurent.items()}
    return _int_plan(rows, 1, den)


def _plan_ratio(plan: tuple, k: int, caller: str) -> tuple[int, int]:
    """The plan's value at k as an unreduced (numerator, denominator) pair.

    The J_s(k) come from k's shared Jordan table; every k-power is taken
    over the lowest exponent, so the sum runs in integers.  A Jordan index
    below 1 is a ``ValueError`` named after ``caller``.
    """
    num, den, phi_exp, low, rows, indices = plan
    if indices and indices[0] < 1:
        raise ValueError(f"{caller}: Jordan index must be >= 1, got {indices[0]}")
    jordan = _jordan_table(indices, k)
    total = 0
    for shift, terms in rows:
        row = 0
        for s, c in terms:
            row += c * jordan[s]
        total += k**shift * row
    num *= total
    if phi_exp:
        num *= jordan[1] ** phi_exp
    if low < 0:
        return num, den * k**-low
    return num * k**low, den


def evaluate_jordan(combo: JordanCombo, k: int) -> Fraction:
    """sum_s coeff * J_s(k), exact.

    A cached sine sum carries its plan, so a warm evaluation of one skips
    the checks of ``_build_plan``; any other combo, an equal copy included,
    is checked and planned on each call.
    """
    _check_int("evaluate_jordan", "k", k, 1)
    plan = getattr(combo, "_plan", None) if isinstance(combo, _Frozen) else None
    if plan is None:
        _check_mapping("evaluate_jordan", "combo", combo)
        plan = _build_plan({0: combo}, "evaluate_jordan")
    return Fraction(*_plan_ratio(plan, k, "evaluate_jordan"))


def evaluate_laurent(laurent: KLaurent, k: int) -> Fraction:
    """sum_e k^e * combo_e(k), exact."""
    _check_int("evaluate_laurent", "k", k, 1)
    return Fraction(*_plan_ratio(_build_plan(laurent, "evaluate_laurent"), k, "evaluate_laurent"))


# ---------------------------------------------------------------------------
# ClosedForm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """scalar * pi^pi_exp * phi(k)^phi_exp * body(k), canonicalized and immutable.

    ``body`` is stored as read-only dicts, equal to the plain ones;
    ``_plan`` is the integer evaluation plan of the canonical form and
    ``_renders`` holds each format's render once it has been asked for.
    """

    scalar: Fraction
    pi_exp: int
    phi_exp: int
    body: Mapping[int, Mapping[int, Fraction]] = field(default_factory=dict)
    _plan: tuple = field(init=False, repr=False, compare=False)
    _renders: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_rational("ClosedForm", "scalar", self.scalar)
        _check_int("ClosedForm", "pi_exp", self.pi_exp, 0)
        _check_int("ClosedForm", "phi_exp", self.phi_exp, 0)
        # The raw plan checks every key, zero cells too, and gives integers over one lcm.
        _, den, _, low, rows, _ = _build_plan(self.body, "ClosedForm", "body")
        body = {low + shift: combo for shift, terms in rows if (combo := {s: c for s, c in terms if c})}
        scalar = Fraction(0)
        if body:
            g = math.gcd(*[c for combo in body.values() for c in combo.values()])
            lead = body[max(body)]
            if lead[max(lead)] < 0:
                g = -g
            scalar = self.scalar * Fraction(g, den)
            body = {e: {s: c // g for s, c in combo.items()} for e, combo in body.items()}
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "body", _fractions(body, 1))
        object.__setattr__(self, "_plan", _int_plan(body, scalar.numerator, scalar.denominator, self.phi_exp))
        object.__setattr__(self, "_renders", {})

    def __reduce__(self):
        return ClosedForm, (self.scalar, self.pi_exp, self.phi_exp, self.body)


@functools.cache
def _pi_power(pi_exp: int, precision_bits: int) -> tuple:
    """pi^pi_exp at ``precision_bits`` working precision, as an mpf value tuple."""
    with mp.workprec(precision_bits):
        return (mp.pi**pi_exp)._mpf_


def _round_even(man: int, exp: int, bits: int) -> tuple[int, int]:
    """man * 2^exp, for man > 0, rounded half to even to ``bits`` significant bits.

    Returns (man, exp) with man below 2^bits, or equal to it after a carry.
    """
    shift = man.bit_length() - bits
    if shift <= 0:
        return man, exp
    head = man >> shift
    rest = man - (head << shift)
    half = 1 << (shift - 1)
    if rest > half or (rest == half and head & 1):
        head += 1
    return head, exp + shift


def evaluate_closed_form(form: ClosedForm, k: int, precision_bits: int = 128):
    """Numeric value at k: exact rational part first, pi power last.

    Returns an mpmath float computed at ``precision_bits`` working precision
    (plus guard bits for the final multiplications); pi^pi_exp is computed
    once per (exponent, precision) and cached.
    """
    _check_int("evaluate_closed_form", "k", k, 3)
    _check_int("evaluate_closed_form", "precision_bits", precision_bits, 53)
    if not isinstance(form, ClosedForm):
        raise ValueError(f"evaluate_closed_form: form must be a ClosedForm, got {type(form).__name__}")
    num, den = _plan_ratio(form._plan, k, "evaluate_closed_form")
    if not num:
        return mp.zero
    g = math.gcd(num, den)
    den //= g
    # mp.mpf(num) / den * pi^pi_exp at precision_bits + 16, then rounded to
    # precision_bits: the four roundings of that context arithmetic, half to
    # even, made on integer mantissas.  The quotient keeps at least prec + 2
    # bits and a sticky bit for a nonzero remainder, so it rounds as the
    # exact quotient does.
    prec = precision_bits + 16
    man, exp = _round_even(abs(num) // g, 0, prec)
    shift = prec + 2 + den.bit_length() - man.bit_length()
    quot, rem = divmod(man << shift, den)
    man, exp = _round_even(quot << 1 | (rem != 0), exp - shift - 1, prec)
    _, pi_man, pi_exp, _ = _pi_power(form.pi_exp, prec)
    man, exp = _round_even(man * pi_man, exp + pi_exp, prec)
    man, exp = _round_even(man, exp, precision_bits)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return mp.make_mpf((1 if num < 0 else 0, MPZ(man), exp + zeros, man.bit_length()))


# ---------------------------------------------------------------------------
# Rendering (deterministic; terms ordered by descending index)
# ---------------------------------------------------------------------------

def _frac_slash(c: Fraction) -> str:
    """Always-slashed 'p/q' string used in JSON payloads."""
    return f"{c.numerator}/{c.denominator}"


def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(c.numerator), c.denominator)


def _combo_terms(combo: JordanCombo, latex: bool) -> str:
    if not combo:
        return "0"
    parts: list[str] = []
    for i, s in enumerate(sorted(combo, reverse=True)):
        c = combo[s]
        mag = abs(c)
        sym = r"J_{%d}(k)" % s if latex else f"J_{s}"
        if mag == 1:
            term = sym
        elif latex:
            term = _coeff_latex(mag) + " " + sym
        else:
            term = str(mag) + " " + sym
        if i == 0:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def _combo_json(combo: JordanCombo) -> dict[str, str]:
    return {str(s): _frac_slash(combo[s]) for s in sorted(combo, reverse=True)}


def _closed_form_json(form: ClosedForm) -> dict:
    return {
        "scalar": _frac_slash(form.scalar),
        "pi_exp": form.pi_exp,
        "phi_exp": form.phi_exp,
        "body": {str(e): _combo_json(form.body[e]) for e in sorted(form.body, reverse=True)},
    }


def _closed_form_latex(form: ClosedForm) -> str:
    if not form.body:
        return "0"
    num_parts: list[str] = []
    den_parts: list[str] = []
    if abs(form.scalar.numerator) != 1:
        num_parts.append(str(abs(form.scalar.numerator)))
    if form.pi_exp:
        num_parts.append(r"\pi^{%d}" % form.pi_exp if form.pi_exp > 1 else r"\pi")
    if form.phi_exp:
        num_parts.append(r"\phi(k)" if form.phi_exp == 1 else r"\phi(k)^{%d}" % form.phi_exp)
    if form.scalar.denominator != 1:
        den_parts.append(str(form.scalar.denominator))

    exponents = sorted(form.body, reverse=True)
    single = len(exponents) == 1
    if single:
        e = exponents[0]
        if e < 0:
            den_parts.append(r"k^{%d}" % -e if e < -1 else "k")
        elif e > 0:
            num_parts.append(r"k^{%d}" % e if e > 1 else "k")
        body_tex = r"\left( %s \right)" % _combo_terms(form.body[e], latex=True)
    else:
        pieces = []
        for e in exponents:
            inner = r"\left( %s \right)" % _combo_terms(form.body[e], latex=True)
            if e:
                inner = r"k^{%d} " % e + inner
            pieces.append(inner)
        body_tex = r"\left[ %s \right]" % " + ".join(pieces)

    sign = "-" if form.scalar < 0 else ""
    num = " ".join(num_parts) if num_parts else "1"
    if den_parts:
        prefix = r"\frac{%s}{%s}" % (num, " ".join(den_parts))
    elif num_parts:
        prefix = num
    else:
        prefix = ""
    return (sign + prefix + " " + body_tex).strip()


def _closed_form_text(form: ClosedForm) -> str:
    if not form.body:
        return "0"
    parts = [str(form.scalar)]
    if form.pi_exp:
        parts.append(f"pi^{form.pi_exp}" if form.pi_exp > 1 else "pi")
    if form.phi_exp:
        parts.append(f"phi(k)^{form.phi_exp}" if form.phi_exp > 1 else "phi(k)")
    pieces = []
    for e in sorted(form.body, reverse=True):
        combo = "(" + _combo_terms(form.body[e], latex=False) + ")"
        pieces.append(f"k^{e} * {combo}" if e else combo)
    parts.append(pieces[0] if len(pieces) == 1 else "[" + " + ".join(pieces) + "]")
    return " * ".join(parts)


def render(obj: ClosedForm | JordanCombo, format: str = "text") -> str:
    """Deterministic rendering of a ClosedForm or JordanCombo.

    Formats: ``latex``, ``json``, ``text``.  Terms are ordered by descending
    Jordan index (and descending k-exponent); identical inputs produce
    byte-identical output.  A ``ClosedForm``'s render is made once per
    format and kept on the form.
    """
    if format not in ("latex", "json", "text"):
        raise ValueError(f"render: unknown format {format!r}")
    if isinstance(obj, ClosedForm):
        text = obj._renders.get(format)
        if text is None:
            if format == "json":
                text = json.dumps(_closed_form_json(obj))
            elif format == "latex":
                text = _closed_form_latex(obj)
            else:
                text = _closed_form_text(obj)
            obj._renders[format] = text
        return text
    _check_mapping("render", "obj", obj)
    _check_laurent("render", "obj", {0: obj})
    if format == "json":
        return json.dumps(_combo_json(obj))
    return _combo_terms(obj, latex=(format == "latex"))


# ---------------------------------------------------------------------------
# Parsing (inverse of the JSON rendering)
# ---------------------------------------------------------------------------

def _json_int(function: str, param: str, value):
    """A string (the JSON form of a key) as an int; any other value is left to the integer rule."""
    try:
        return int(value) if isinstance(value, str) else value
    except ValueError:
        raise ValueError(f"{function}: {param} must be an integer, got {value!r}") from None


def _json_fraction(function: str, param: str, value) -> Fraction:
    """A scalar or coefficient (a "p/q" string or a number) as a ``Fraction``; a ``ValueError`` otherwise."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{function}: {param} must be a rational number, got {value!r}") from None


def _json_object(function: str, param: str, data) -> Mapping:
    """``data``, decoded first if it is a string, when it is a JSON object; a ``ValueError`` otherwise."""
    try:
        data = json.loads(data) if isinstance(data, str) else data
    except json.JSONDecodeError as error:
        raise ValueError(f"{function}: {param} must be a JSON object, got invalid JSON ({error})") from None
    if not isinstance(data, Mapping):
        raise ValueError(f"{function}: {param} must be a JSON object, got {type(data).__name__}")
    return data


def parse_jordan_combo(data: str | dict) -> JordanCombo:
    data = _json_object("parse_jordan_combo", "data", data)
    combo = {}
    for s, c in data.items():
        s = _json_int("parse_jordan_combo", "Jordan index", s)
        _check_int("parse_jordan_combo", "Jordan index", s)
        combo[s] = _json_fraction("parse_jordan_combo", f"coefficient of Jordan index {s}", c)
    return {s: c for s, c in combo.items() if c}


def parse_closed_form(data: str | dict) -> ClosedForm:
    """The inverse of the JSON render; ``ClosedForm`` checks the exponents and k-exponents."""
    data = _json_object("parse_closed_form", "data", data)
    try:
        scalar, pi_exp, phi_exp, body = [data[key] for key in ("scalar", "pi_exp", "phi_exp", "body")]
    except KeyError as error:
        raise ValueError(f"parse_closed_form: data has no key {error}") from None
    body = _json_object("parse_closed_form", "body", body)
    return ClosedForm(
        scalar=_json_fraction("parse_closed_form", "scalar", scalar),
        pi_exp=_json_int("parse_closed_form", "pi_exp", pi_exp),
        phi_exp=_json_int("parse_closed_form", "phi_exp", phi_exp),
        body={_json_int("parse_closed_form", "k-exponent", e): parse_jordan_combo(combo) for e, combo in body.items()},
    )
