"""Workload definitions, seeded draw rules and output checks.

Nothing here imports ``meansq``: the inputs are generated and the outputs
checked by the benchmark's own code, against golden data written from the
package (``make_golden.py``) and against an independent exact evaluation of
Jordan-totient combinations.

Each workload runs in *rounds*.  A round is a fixed amount of work whose
cost does not depend on the seed (the seed picks the inputs inside the
round), so round times from different seeds are comparable and ``wall_s``
is the median round time.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import mp

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

WORKLOAD_NAMES = ("symbolic-cold", "oracle-sweep", "warm-queries")


@dataclass(frozen=True)
class Spec:
    """Sizes of every workload; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    cold_ranks: tuple[int, ...]
    cold_sin_orders: tuple[int, ...]
    oracle_ranks: tuple[int, ...]
    oracle_k: tuple[int, int]
    warm_ranks: tuple[int, ...]
    warm_n_max: int
    warm_k_max: int
    warm_round_ops: int
    setups: dict


FULL = Spec(
    cold_ranks=(9, 10, 11, 12, 13),
    # Fixed, not drawn: with 7 ops per round the median op is whichever sits
    # in the middle, and seeded orders moved it by up to 30%.  At 34 and 36
    # the sine sums cost about what r = 9 and r = 10 cost.
    cold_sin_orders=(34, 36),
    oracle_ranks=(1, 3, 4, 5, 6, 7),
    oracle_k=(3, 40),
    warm_ranks=(1, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    warm_n_max=30,
    warm_k_max=10**5,
    warm_round_ops=1000,
    setups={"symbolic-cold": 9, "oracle-sweep": 3, "warm-queries": 5},
)

TINY = Spec(
    cold_ranks=(3, 4),
    cold_sin_orders=(4, 6),
    oracle_ranks=(1, 3),
    oracle_k=(3, 8),
    warm_ranks=(1, 3, 4),
    warm_n_max=6,
    warm_k_max=1000,
    warm_round_ops=50,
    setups={"symbolic-cold": 2, "oracle-sweep": 2, "warm-queries": 2},
)

# Ops of the fixed list whose results are digested into the golden file.
DIGEST_OPS = {"full": 200, "tiny": 20}
# Exact sine-sum values cross-checked against the numeric route per run.
SIN_CROSS_CHECKS = 16
SIN_CROSS_K_MAX = 50


def rng_for(workload: str, seed: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _phi(k: int) -> int:
    return sum(1 for m in range(1, k + 1) if math.gcd(m, k) == 1)


# ---------------------------------------------------------------------------
# Draw rules, one round at a time
# ---------------------------------------------------------------------------

def cold_round(spec: Spec, rng: random.Random) -> list[list[str]]:
    """Every rank and sine-sum order of the pool once, in seeded order."""
    ops = [["closed-form", "--r", str(r), "--format", "json"] for r in spec.cold_ranks]
    ops += [["sin-sum", "--n", str(n), "--format", "json"] for n in spec.cold_sin_orders]
    rng.shuffle(ops)
    return ops


def oracle_round(spec: Spec, rng: random.Random) -> list[tuple[int, int]]:
    """Every k in range twice: once with r = 1, once with a seeded zeta rank.

    The oracle's cost grows like phi(k)^2, and r = 1 (digamma) costs about
    a tenth of r >= 3, whose costs are within a few percent of each other.
    So r = 1 meets every k, and the zeta ranks are dealt out as a seeded
    permutation within each block of moduli of similar phi(k): every zeta
    rank meets every cost level once per round, and the round's cost does
    not depend on the seed.
    """
    lo, hi = spec.oracle_k
    ks = sorted(range(lo, hi + 1), key=lambda k: (-_phi(k), k))
    zeta_ranks = [r for r in spec.oracle_ranks if r != 1]
    ops = [(1, k) for k in ks] if 1 in spec.oracle_ranks else []
    for i in range(0, len(ks), len(zeta_ranks)):
        block = ks[i : i + len(zeta_ranks)]
        ops += list(zip(rng.sample(zeta_ranks, len(block)), block))
    rng.shuffle(ops)
    return ops


def warm_round(spec: Spec, rng: random.Random, size: int | None = None) -> list[tuple[int, int, int]]:
    """(r, k, n) triples: rank from the built pool, k uniform in [3, k_max], even n <= n_max."""
    return [
        (rng.choice(spec.warm_ranks), rng.randint(3, spec.warm_k_max), 2 * rng.randint(0, spec.warm_n_max // 2))
        for _ in range(size or spec.warm_round_ops)
    ]


def digest_ops(spec: Spec, mode: str) -> list[tuple[int, int, int]]:
    return warm_round(spec, rng_for("warm-queries", "golden"), DIGEST_OPS[mode])


def sin_cross_pairs(spec: Spec, rng: random.Random) -> list[tuple[int, int]]:
    return [
        (2 * rng.randint(0, spec.warm_n_max // 2), rng.randint(3, SIN_CROSS_K_MAX))
        for _ in range(SIN_CROSS_CHECKS)
    ]


# ---------------------------------------------------------------------------
# Golden data and the independent exact evaluation
# ---------------------------------------------------------------------------

def digest(outputs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def load_golden(directory: Path = GOLDEN_DIR) -> dict:
    with open(directory / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def cold_key(argv: list[str]) -> str:
    return " ".join(argv)


def oracle_key(r: int, k: int) -> str:
    return f"{r},{k}"


def _primes(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        out.append(k)
    return out


class _Combo:
    """A Jordan combination as integer numerators over one common denominator."""

    def __init__(self, combo: dict[int, Fraction]) -> None:
        self.den = math.lcm(*(c.denominator for c in combo.values())) if combo else 1
        self.terms = [(s, int(c * self.den)) for s, c in combo.items()]


class Reference:
    """Exact values of the golden forms and sine sums, by the benchmark's own integer arithmetic."""

    def __init__(self, golden: dict) -> None:
        warm = golden["warm_queries"]
        self.renders = {int(r): texts for r, texts in warm["renders"].items()}
        self.forms = {r: [self._parse_form(t) for t in texts] for r, texts in self.renders.items()}
        self.combos = {
            int(n): _Combo({int(s): Fraction(c) for s, c in combo.items()}) for n, combo in warm["combos"].items()
        }
        self._primes: dict[int, list[int]] = {}

    @staticmethod
    def _parse_form(text: str):
        data = json.loads(text)
        body = {int(e): _Combo({int(s): Fraction(c) for s, c in combo.items()}) for e, combo in data["body"].items()}
        return Fraction(data["scalar"]), data["pi_exp"], data["phi_exp"], body

    def jordan(self, s: int, k: int) -> int:
        primes = self._primes.get(k)
        if primes is None:
            primes = self._primes[k] = _primes(k)
        out = k**s
        for p in primes:
            out = out // p**s * (p**s - 1)
        return out

    def _numerator(self, combo: _Combo, k: int) -> int:
        return sum(c * self.jordan(s, k) for s, c in combo.terms)

    def sin_value(self, n: int, k: int) -> Fraction:
        combo = self.combos[n]
        return Fraction(self._numerator(combo, k), combo.den)

    def form_value(self, form, k: int):
        """The form at k as an mpmath number at 200 bits."""
        scalar, pi_exp, phi_exp, body = form
        low = min(body, default=0)
        den = math.lcm(*(combo.den for combo in body.values()))
        num = sum(self._numerator(combo, k) * (den // combo.den) * k ** (e - low) for e, combo in body.items())
        exact = scalar * Fraction(self.jordan(1, k)) ** phi_exp * Fraction(k) ** low * Fraction(num, den)
        with mp.workprec(200):
            return mp.mpf(exact.numerator) / exact.denominator * mp.pi**pi_exp


def mpf_from_parts(parts: list[int]):
    sign, man, exp = parts
    with mp.workprec(max(man.bit_length(), 53)):
        value = mp.ldexp(mp.mpf(man), exp)
    return -value if sign else value


def check_warm(ref: Reference, out: dict) -> bool:
    """One warm-queries op: renders byte-equal to golden, values equal to the reference."""
    r, k, n = out["r"], out["k"], out["n"]
    if out["renders"] != ref.renders[r]:
        return False
    if Fraction(out["sin"]) != ref.sin_value(n, k):
        return False
    if len(out["values"]) != len(ref.forms[r]):
        return False
    with mp.workprec(200):
        for parts, form in zip(out["values"], ref.forms[r]):
            want = ref.form_value(form, k)
            if abs(mpf_from_parts(parts) - want) > abs(want) * mp.ldexp(1, -120):
                return False
    return True


def check_sin_cross(ref: Reference, item: dict) -> bool:
    """Exact sine-sum value equals the reference and the numeric route to 1e-30."""
    exact = Fraction(item["exact"])
    if exact != ref.sin_value(item["n"], item["k"]):
        return False
    with mp.workprec(200):
        numeric = mpf_from_parts(item["numeric"])
        exact_mp = mp.mpf(exact.numerator) / exact.denominator
        return bool(abs(numeric - exact_mp) <= abs(exact_mp) * mp.mpf("1e-30"))


def check_oracle(golden: dict, r: int, k: int, rc: int, stdout: str) -> bool:
    """verify report: exit 0, pass flag set, symbolic value byte-equal to golden, numeric value within 1e-30."""
    want = golden["oracle_sweep"].get(oracle_key(r, k))
    if rc != 0 or want is None:
        return False
    try:
        report = json.loads(stdout)
        (case,) = report["cases"]
    except (ValueError, KeyError, TypeError):
        return False
    if (case.get("r"), case.get("k")) != (r, k) or case.get("pass") is not True:
        return False
    if report.get("summary", {}).get("failed") != 0:
        return False
    if case.get("symbolic_value") != want["symbolic_value"]:
        return False
    with mp.workprec(200):
        got, expected = mp.mpf(case["numeric_value"]), mp.mpf(want["numeric_value"])
        return bool(abs(got - expected) <= abs(expected) * mp.mpf("1e-30"))
