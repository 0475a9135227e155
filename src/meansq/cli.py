"""Command-line front end.

Subcommands:

* ``closed-form``     -- print the mean-square closed form for a rank r.
* ``sin-sum``         -- print the Jordan expansion of an even reciprocal
                         sine power sum, optionally evaluated at a modulus.
* ``verify``          -- sweep (r, k) pairs comparing the closed forms
                         against the independent numeric route; emits a JSON
                         report on stdout.
* ``identity-check``  -- run one of the exact/numeric identity suites.

One table, ``_COMMANDS``, declares each subcommand's handler, help line and
options, and ``_SUITES`` each identity-check suite's runner and options; the
parser, the dispatch and the config checks are built from the two.

Exit codes are a stable contract: 0 success, 1 verification failure (a
check that did not hold), 2 usage error.  Results go to stdout
(byte-identical for identical invocations); everything else goes to
stderr.  A handler reports a usage error by raising ``ValueError``; ``main``
alone prints it, once, as ``<subcommand>: <message>``, and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from .mean_square import (
    mean_square_even,
    mean_square_odd,
    realjs_rhs_exact,
    sigma0,
    sigma0_prime,
    sigma1,
    sigma1_prime,
    sigma2,
    sigma2_prime,
)
from .multiplicative import coprime_residues
from .oracle import exp_sum_direct, mean_square_numeric, power_exp_identity_check
from .sine_sums import sin_sum_exact
from .symbolic import ClosedForm, evaluate_closed_form, evaluate_jordan, render

__all__ = ["main"]

USAGE_ERROR = 2
CHECK_FAILED = 1

# Applied readings of ambiguities in the published formulation; printed on
# --pedantic so downstream users can audit them.
_PEDANTIC_NOTES = (
    "pedantic: even-case product block reads the derivative-coefficient "
    "subscript as 2h - q1 - j (a stray h0 offset in the published statement "
    "is taken to be 0).",
    "pedantic: in the reflected even-case block the inner expansion range "
    "runs to q - s + 1 as the product expansion forces; the cancellation "
    "identity fails if the range is cut one term short.",
    "pedantic: L(1, chi) is evaluated as a finite digamma combination; a "
    "tail-truncated conditionally convergent series cannot reach the "
    "requested working precision.",
)


def _parse_int_list(text: str) -> list[int]:
    """'5', '3..7', or '3,4,9' -> list of ints; a reversed or malformed piece is a ValueError."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            try:
                lo, hi = map(int, piece.split(".."))
            except ValueError:
                raise ValueError(f"malformed range: {piece!r}") from None
            if lo > hi:
                raise ValueError(f"reversed range: {piece!r}")
            out.extend(range(lo, hi + 1))
        elif piece:
            try:
                out.append(int(piece))
            except ValueError:
                raise ValueError(f"malformed integer: {piece!r}") from None
    if not out:
        raise ValueError(f"empty integer list: {text!r}")
    return out


def _parse_tol(text):
    """Relative tolerance: finite and non-negative, else ValueError."""
    message = f"--tol must be a finite non-negative number, got {text!r}"
    try:
        tol = mp.mpf(text)
    except ValueError:
        raise ValueError(message) from None
    if not mp.isfinite(tol) or tol < 0:
        raise ValueError(message)
    return tol


def _nstr(x, precision_bits: int) -> str:
    return mp.nstr(x, max(17, int(precision_bits * 0.30103)))


def _mean_square_forms(r: int) -> tuple[ClosedForm, ...]:
    if r == 2:
        raise ValueError("r = 2 is not covered; the even-parity construction requires r = 2h "
                         "with h >= 2 (use r >= 4 even, or any odd r)")
    if r % 2:
        forms = mean_square_odd(r)
        return forms if isinstance(forms, tuple) else (forms,)
    return (mean_square_even(r),)


def _evaluate_forms(forms: tuple[ClosedForm, ...], k: int, precision_bits: int):
    with mp.workprec(precision_bits):
        return mp.fsum(evaluate_closed_form(f, k, precision_bits) for f in forms)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _report(head: dict, cases: list[dict]) -> int:
    """Print the JSON report ``{**head, "cases", "summary"}``; exit 1 if any case failed."""
    failed = sum(not case["pass"] for case in cases)
    summary = {"total": len(cases), "passed": len(cases) - failed, "failed": failed}
    print(json.dumps({**head, "cases": cases, "summary": summary}, indent=2))
    return CHECK_FAILED if failed else 0


def _cmd_closed_form(args) -> int:
    forms = _mean_square_forms(args.r)
    if args.format == "json":
        payload = [json.loads(render(f, "json")) for f in forms]
        print(json.dumps(payload[0] if len(payload) == 1 else payload))
    else:
        for f in forms:
            print(render(f, args.format))
    return 0


def _cmd_sin_sum(args) -> int:
    n, k = args.n, args.k
    if n % 2:
        raise ValueError("--n must be an even non-negative integer")
    combo = sin_sum_exact(n)
    if args.format == "json":
        payload: dict = {"n": n, "combo": json.loads(render(combo, "json"))}
        if k is not None:
            value = evaluate_jordan(combo, k)
            payload["k"] = k
            payload["value"] = f"{value.numerator}/{value.denominator}"
        print(json.dumps(payload))
    else:
        print(render(combo, args.format))
        if k is not None:
            print(evaluate_jordan(combo, k))
    return 0


def _cmd_verify(args) -> int:
    tol, prec = args.tol, args.prec
    # every form is built before the first oracle call, so r = 2 fails fast
    forms = {r: _mean_square_forms(r) for r in args.r}
    cases = []
    for r, r_forms in forms.items():
        for k in args.k:
            sym = _evaluate_forms(r_forms, k, prec)
            num = mean_square_numeric(r, k, prec)
            with mp.workprec(prec):
                rel = abs(sym - num) / abs(num)
            cases.append({"r": r, "k": k, "symbolic_value": _nstr(sym, prec),
                          "numeric_value": _nstr(num, prec), "rel_error": mp.nstr(rel, 3),
                          "pass": bool(rel <= tol)})
    return _report({"precision_bits": prec, "tolerance": mp.nstr(tol, 3)}, cases)


def _check_realjs(args) -> list[dict]:
    cases = []
    for p in range(1, args.p + 1):
        for q in range(1, args.q + 1):
            for k in args.k:
                exact = realjs_rhs_exact(p, q, k)
                direct = exp_sum_direct(p, q, k, precision_bits=args.prec)
                with mp.workprec(args.prec):
                    exact_mp = mp.mpf(exact.numerator) / exact.denominator
                    scale = max(abs(direct.real), mp.mpf(1))
                    rel = abs(exact_mp - direct.real) / scale
                cases.append(
                    {"p": p, "q": q, "k": k, "rel_error": mp.nstr(rel, 3), "pass": bool(rel <= args.tol)}
                )
    return cases


def _check_expsum(args) -> list[dict]:
    cases = []
    for n in range(1, args.n + 1):
        for k in args.k:
            for m in coprime_residues(k):
                ok = power_exp_identity_check(n, m, k, precision_bits=args.prec, tol=args.tol)
                cases.append({"n": n, "m": m, "k": k, "pass": ok})
    return cases


def _check_sigma_cancel(args) -> list[dict]:
    cases = []
    for h in args.h:
        ok = sigma1(h) == {e: {s: -c for s, c in combo.items()} for e, combo in sigma2(h).items()}
        cases.append({"h": h, "identity": "odd-sum-cancels", "pass": ok})
        if h >= 2:
            ok = sigma1_prime(h) == sigma2_prime(h)
            cases.append({"h": h, "identity": "even-sums-equal", "pass": ok})
    return cases


def _check_sigma0(args) -> list[dict]:
    cases = []
    for h in args.h:
        value = sigma0(h)
        expected = {0: {1: Fraction(1, 2)}} if h == 0 else {}
        rendered = render(value.get(0, {}), "text") if value else "0"
        cases.append({"h": h, "block": "single-exponential", "value": rendered, "pass": value == expected})
        if h >= 2:
            value_p = sigma0_prime(h)
            rendered = render(value_p.get(0, {}), "text") if value_p else "0"
            cases.append({"h": h, "block": "single-exponential-even", "value": rendered, "pass": not value_p})
    return cases


def _cmd_identity_check(args) -> int:
    return _report({"check": args.which}, _SUITES[args.which][0](args))


# ---------------------------------------------------------------------------
# The CLI table, and the parser and option plumbing built from it
# ---------------------------------------------------------------------------

_REQUIRED = object()  # a default that a flag or the config file must replace
_FORMATS = ("latex", "json", "text")


class _Option(NamedTuple):
    kind: str  # a key of _KINDS
    default: object = None  # as a flag would give it; None leaves the option unset
    least: int | None = None
    help: str | None = None


_PREC = _Option("int", 128, 53)
_TOL = _Option("tol", "1e-10")
_FORMAT = _Option("format", "text")
_MODULI, _HS = "moduli list (realjs/expsum)", "h list (sigma-cancel/sigma0)"

# identity-check suite -> (runner, the options it reads).
_SUITES = {
    "realjs": (_check_realjs, {"p": _Option("int", 4, 1, "max first power (realjs)"),
                               "q": _Option("int", 4, 1, "max second power (realjs)"),
                               "k": _Option("list", "3..10", 3, _MODULI), "tol": _TOL, "prec": _PREC}),
    "expsum": (_check_expsum, {"n": _Option("int", 6, 1, "max power (expsum)"),
                               "k": _Option("list", "3..12", 3, _MODULI), "tol": _TOL, "prec": _PREC}),
    "sigma-cancel": (_check_sigma_cancel, {"h": _Option("list", "1..4", 1, _HS)}),
    "sigma0": (_check_sigma0, {"h": _Option("list", "0..3", 0, _HS)}),
}

# The one declaration of the CLI: subcommand -> (handler, help line, its flags'
# options, in help order).  identity-check's are the union of its suites' (a
# name in two suites has one kind and help line); it reads those of the suite
# --which names.  main fills and checks every option read before the handler runs.
_COMMANDS = {
    "closed-form": (_cmd_closed_form, "closed form for the rank-r mean square",
                    {"r": _Option("int", _REQUIRED, 1), "format": _FORMAT}),
    "sin-sum": (_cmd_sin_sum, "Jordan expansion of the order-n sine power sum",
                {"n": _Option("int", 6, 0), "k": _Option("int", None, 3), "format": _FORMAT}),
    "verify": (_cmd_verify, "compare closed forms against the numeric oracle",
               {"r": _Option("list", _REQUIRED, 1, "ranks: e.g. '5', '3..7', '1,3,5'"),
                "k": _Option("list", _REQUIRED, 3, "moduli: same syntax"),
                "tol": _TOL._replace(help="relative tolerance"),
                "prec": _PREC._replace(help="working precision in bits")}),
    "identity-check": (_cmd_identity_check, "run one exact/numeric identity suite",
                       {key: option for _, options in _SUITES.values() for key, option in options.items()}),
}


def _is_int(value) -> bool:
    """The library's integer rule (``multiplicative._check_int``): an int, not a bool."""
    return type(value) is int


# Each kind of option: the config values it takes, how to say so, how a value
# is parsed, and the argparse arguments of its flag.
_KINDS = {
    "int": (_is_int, "an integer", int, {"type": int}),
    "list": (lambda v: _is_int(v) or isinstance(v, str), "an integer or an integer list such as '3..7'",
             lambda v: _parse_int_list(str(v)), {}),
    "tol": (lambda v: _is_int(v) or isinstance(v, (str, float)), "a number or a numeric string",
            _parse_tol, {}),
    "format": (lambda v: v in _FORMATS, f"one of {', '.join(_FORMATS)}", str, {"choices": _FORMATS}),
    "bool": (lambda v: isinstance(v, bool), "true or false", bool, {"action": "store_true"}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_COMMANDS``; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="meansq",
        description="Exact mean-square closed forms for Dirichlet L-values, "
        "reciprocal sine power sums, and a numeric verification oracle.",
    )
    parser.add_argument("--config", help="optional JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        if command == "identity-check":
            command_parser.add_argument("--which", choices=tuple(_SUITES), required=True)
        for key, option in options.items():
            command_parser.add_argument(f"--{key}", help=option.help, **_KINDS[option.kind][3])
        command_parser.add_argument("--pedantic", **_KINDS["bool"][3])
    return parser


def _read_config(path: str, options: dict[str, _Option]) -> dict:
    """The config file's values for ``options``, and ``pedantic``.

    The file must hold a JSON object whose keys are option names, each with
    a value of the kind its option takes; anything else raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(config).__name__}")
    unknown = sorted(set(config) - {key for _, _, table in _COMMANDS.values() for key in table} - {"pedantic"})
    if unknown:
        raise ValueError(f"{path}: unknown key(s): {', '.join(unknown)}")
    kinds = {key: option.kind for key, option in options.items()} | {"pedantic": "bool"}
    config = {key: value for key, value in config.items() if key in kinds}
    for key, value in config.items():
        accepts, want, _, _ = _KINDS[kinds[key]]
        if not accepts(value):
            raise ValueError(f"{path}: key {key!r} must be {want}, got {json.dumps(value)}")
    return config


def _resolve_options(args, flags: dict[str, _Option], reads: dict[str, _Option], config: dict) -> None:
    """Set each option in ``reads`` from its flag, else the config file, else its default.

    An integer list is set sorted, each value once.  A flag in ``flags`` but
    not in ``reads``, a missing required option, a malformed value and a
    value below its least all raise ValueError.
    """
    stray = sorted(key for key in flags.keys() - reads.keys() if getattr(args, key) is not None)
    if stray:
        raise ValueError(f"--which {args.which} does not read --{stray[0]}")
    for key, (kind, default, least, _) in reads.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, default)
        if value is _REQUIRED:
            raise ValueError(f"--{key} is required")
        if value is not None:
            value = _KINDS[kind][2](value)
            below = [v for v in (value if kind == "list" else [value]) if least is not None and v < least]
            if below:
                raise ValueError(f"--{key} must be >= {least}, got {below[0]}")
            if kind == "list":
                value = sorted(set(value))
        setattr(args, key, value)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    reads = _SUITES[args.which][1] if args.command == "identity-check" else flags
    try:
        config = _read_config(args.config, flags) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"meansq: cannot read config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.pedantic or config.get("pedantic"):
        for note in _PEDANTIC_NOTES:
            print(note, file=sys.stderr)
    try:
        _resolve_options(args, flags, reads, config)
        return handler(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
