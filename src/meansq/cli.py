"""Command-line front end.

Subcommands:

* ``closed-form``     -- print the mean-square closed form for a rank r.
* ``sin-sum``         -- print the Jordan expansion of an even reciprocal
                         sine power sum, optionally evaluated at a modulus.
* ``verify``          -- sweep (r, k) pairs comparing the closed forms
                         against the independent numeric route; emits a JSON
                         report on stdout.
* ``identity-check``  -- run one of the exact/numeric identity suites.

Exit codes are a stable contract: 0 success, 1 verification or internal
assertion failure, 2 usage error.  Results go to stdout (byte-identical for
identical invocations); everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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
from .sine_sums import UncancelledPowerError, sin_sum_exact
from .symbolic import ClosedForm, evaluate_closed_form, evaluate_jordan, kl_add, render

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


def _emit_pedantic(args) -> None:
    if getattr(args, "pedantic", False):
        for note in _PEDANTIC_NOTES:
            print(note, file=sys.stderr)


def _parse_int_list(text: str) -> list[int]:
    """'5', '3..7', or '3,4,9' -> list of ints."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, hi = piece.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif piece:
            out.append(int(piece))
    if not out:
        raise ValueError(f"empty integer list: {text!r}")
    return out


def _parse_tol(text):
    """Relative tolerance: finite and non-negative, else ValueError."""
    tol = mp.mpf(text)
    if not mp.isfinite(tol) or tol < 0:
        raise ValueError(f"--tol must be a finite non-negative number, got {text!r}")
    return tol


def _nstr(x, precision_bits: int) -> str:
    return mp.nstr(x, max(17, int(precision_bits * 0.30103)))


def _mean_square_forms(r: int) -> tuple[ClosedForm, ...]:
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

def _cmd_closed_form(args) -> int:
    r = args.r
    if r is None or r < 1:
        print("closed-form: --r must be a positive integer", file=sys.stderr)
        return USAGE_ERROR
    if r == 2:
        print(
            "closed-form: r = 2 is not covered; the even-parity construction "
            "requires r = 2h with h >= 2 (use r >= 4 even, or any odd r)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    forms = _mean_square_forms(r)
    if args.format == "json":
        payload = [json.loads(render(f, "json")) for f in forms]
        print(json.dumps(payload[0] if len(payload) == 1 else payload))
    else:
        for f in forms:
            print(render(f, args.format))
    return 0


def _cmd_sin_sum(args) -> int:
    n = args.n
    if n is None or n < 0 or n % 2:
        print("sin-sum: --n must be an even non-negative integer", file=sys.stderr)
        return USAGE_ERROR
    combo = sin_sum_exact(n)
    k = args.k
    if k is not None and k < 3:
        print("sin-sum: --k must be >= 3", file=sys.stderr)
        return USAGE_ERROR
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
    if not args.r or not args.k:
        print("verify: --r and --k are required (e.g. --r 5 --k 3..7)", file=sys.stderr)
        return USAGE_ERROR
    try:
        r_list = sorted(set(_parse_int_list(str(args.r))))
        k_list = sorted(set(_parse_int_list(str(args.k))))
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if any(r < 1 for r in r_list) or 2 in r_list:
        print("verify: every r must be >= 1 and r = 2 has no closed form here", file=sys.stderr)
        return USAGE_ERROR
    if any(k < 3 for k in k_list):
        print("verify: every k must be >= 3", file=sys.stderr)
        return USAGE_ERROR
    prec = args.prec
    tol = _parse_tol(args.tol)
    cases = []
    failed = 0
    for r in r_list:
        forms = _mean_square_forms(r)
        for k in k_list:
            sym = _evaluate_forms(forms, k, prec)
            num = mean_square_numeric(r, k, prec)
            with mp.workprec(prec):
                rel = abs(sym - num) / abs(num)
            ok = bool(rel <= tol)
            failed += not ok
            cases.append(
                {
                    "r": r,
                    "k": k,
                    "symbolic_value": _nstr(sym, prec),
                    "numeric_value": _nstr(num, prec),
                    "rel_error": mp.nstr(rel, 3),
                    "pass": ok,
                }
            )
    report = {
        "precision_bits": prec,
        "tolerance": mp.nstr(tol, 3),
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - failed, "failed": failed},
    }
    print(json.dumps(report, indent=2))
    return 0 if failed == 0 else CHECK_FAILED


def _check_realjs(args) -> list[dict]:
    if args.p < 1 or args.q < 1:
        raise ValueError(f"--p and --q must be >= 1, got {args.p} and {args.q}")
    k_list = _parse_int_list(args.k) if args.k else list(range(3, 11))
    tol = _parse_tol(args.tol)
    cases = []
    for p in range(1, args.p + 1):
        for q in range(1, args.q + 1):
            for k in k_list:
                exact = realjs_rhs_exact(p, q, k)
                direct = exp_sum_direct(p, q, k, conjugate_second=False, precision_bits=args.prec)
                with mp.workprec(args.prec):
                    exact_mp = mp.mpf(exact.numerator) / exact.denominator
                    scale = max(abs(direct.real), mp.mpf(1))
                    rel = abs(exact_mp - direct.real) / scale
                cases.append(
                    {"p": p, "q": q, "k": k, "rel_error": mp.nstr(rel, 3), "pass": bool(rel <= tol)}
                )
    return cases


def _check_expsum(args) -> list[dict]:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    k_list = _parse_int_list(args.k) if args.k else list(range(3, 13))
    tol = float(_parse_tol(args.tol))
    cases = []
    for n in range(1, args.n + 1):
        for k in k_list:
            for m in coprime_residues(k):
                ok = power_exp_identity_check(n, m, k, precision_bits=args.prec, tol=tol)
                cases.append({"n": n, "m": m, "k": k, "pass": ok})
    return cases


def _check_sigma_cancel(args) -> list[dict]:
    h_list = _parse_int_list(args.h) if args.h else [1, 2, 3, 4]
    if any(h < 1 for h in h_list):
        raise ValueError(f"every h must be >= 1, got {args.h}")
    cases = []
    for h in h_list:
        ok = kl_add(sigma1(h), sigma2(h)) == {}
        cases.append({"h": h, "identity": "odd-sum-cancels", "pass": ok})
        if h >= 2:
            ok = sigma1_prime(h) == sigma2_prime(h)
            cases.append({"h": h, "identity": "even-sums-equal", "pass": ok})
    return cases


def _check_sigma0(args) -> list[dict]:
    h_list = _parse_int_list(args.h) if args.h else [0, 1, 2, 3]
    cases = []
    for h in h_list:
        value = sigma0(h)
        expected = {0: {1: Fraction(1, 2)}} if h == 0 else {}
        rendered = render(value.get(0, {}), "text") if value else "0"
        cases.append(
            {"h": h, "block": "single-exponential", "value": rendered, "pass": value == expected}
        )
        if h >= 2:
            value_p = sigma0_prime(h)
            cases.append(
                {
                    "h": h,
                    "block": "single-exponential-even",
                    "value": render(value_p.get(0, {}), "text") if value_p else "0",
                    "pass": value_p == {},
                }
            )
    return cases


def _cmd_identity_check(args) -> int:
    try:
        if args.which == "realjs":
            cases = _check_realjs(args)
        elif args.which == "expsum":
            cases = _check_expsum(args)
        elif args.which == "sigma-cancel":
            cases = _check_sigma_cancel(args)
        else:
            cases = _check_sigma0(args)
    except ValueError as exc:
        print(f"identity-check: {exc}", file=sys.stderr)
        return USAGE_ERROR
    failed = sum(not c["pass"] for c in cases)
    report = {
        "check": args.which,
        "cases": cases,
        "summary": {"total": len(cases), "passed": len(cases) - failed, "failed": failed},
    }
    print(json.dumps(report, indent=2))
    return 0 if failed == 0 else CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meansq",
        description="Exact mean-square closed forms for Dirichlet L-values, "
        "reciprocal sine power sums, and a numeric verification oracle.",
    )
    parser.add_argument("--config", help="optional JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p_form = sub.add_parser("closed-form", help="closed form for the rank-r mean square")
    p_form.add_argument("--r", type=int, default=None)
    p_form.add_argument("--format", choices=("latex", "json", "text"), default=None)
    p_form.add_argument("--pedantic", action="store_true")

    p_sin = sub.add_parser("sin-sum", help="Jordan expansion of the order-n sine power sum")
    p_sin.add_argument("--n", type=int, default=None)
    p_sin.add_argument("--k", type=int, default=None)
    p_sin.add_argument("--format", choices=("latex", "json", "text"), default=None)
    p_sin.add_argument("--pedantic", action="store_true")

    p_ver = sub.add_parser("verify", help="compare closed forms against the numeric oracle")
    p_ver.add_argument("--r", default=None, help="ranks: e.g. '5', '3..7', '1,3,5'")
    p_ver.add_argument("--k", default=None, help="moduli: same syntax")
    p_ver.add_argument("--prec", type=int, default=None, help="working precision in bits")
    p_ver.add_argument("--tol", default=None, help="relative tolerance")
    p_ver.add_argument("--pedantic", action="store_true")

    p_id = sub.add_parser("identity-check", help="run one exact/numeric identity suite")
    p_id.add_argument("--which", choices=("realjs", "expsum", "sigma-cancel", "sigma0"), required=True)
    p_id.add_argument("--p", type=int, default=None, help="max first power (realjs)")
    p_id.add_argument("--q", type=int, default=None, help="max second power (realjs)")
    p_id.add_argument("--n", type=int, default=None, help="max power (expsum)")
    p_id.add_argument("--k", default=None, help="moduli list (realjs/expsum)")
    p_id.add_argument("--h", default=None, help="h list (sigma-cancel/sigma0)")
    p_id.add_argument("--prec", type=int, default=None)
    p_id.add_argument("--tol", default=None)
    p_id.add_argument("--pedantic", action="store_true")
    return parser


_DEFAULTS = {
    "format": "text",
    "prec": 128,
    "tol": "1e-10",
    "p": 4,
    "q": 4,
    "n": 6,
    "r": None,
    "k": None,
    "h": None,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from built-in defaults.

    The file must hold a JSON object whose keys are option names; anything
    else raises ValueError.
    """
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: expected a JSON object, got {type(config).__name__}")
        unknown = sorted(set(config) - set(_DEFAULTS) - {"pedantic"})
        if unknown:
            raise ValueError(f"{args.config}: unknown key(s): {', '.join(unknown)}")
    for key, fallback in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            value = config.get(key, fallback)
            setattr(args, key, value)
    if getattr(args, "pedantic", False) is False and config.get("pedantic"):
        args.pedantic = True


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
    except (OSError, ValueError) as exc:
        print(f"meansq: cannot read config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _emit_pedantic(args)
    handlers = {
        "closed-form": _cmd_closed_form,
        "sin-sum": _cmd_sin_sum,
        "verify": _cmd_verify,
        "identity-check": _cmd_identity_check,
    }
    try:
        return handlers[args.command](args)
    except UncancelledPowerError as exc:
        print(f"meansq: internal cancellation failure: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except ValueError as exc:
        print(f"meansq: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
