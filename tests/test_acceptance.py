"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] name: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream) and enforces
the stated runtime budget.
"""

import time
from fractions import Fraction

from mpmath import mp

from combo_algebra import kl_add
from meansq.mean_square import (
    l_principal_closed_form,
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
from meansq.multiplicative import coprime_residues
from meansq.oracle import (
    characters_with_parity,
    exp_sum_direct,
    l_value_numeric,
    mean_square_numeric,
    power_exp_identity_check,
)
from meansq.sine_sums import sin_sum_exact, sin_sum_numeric
from meansq.symbolic import ClosedForm, evaluate_closed_form, evaluate_jordan

F = Fraction


def report(number: int, name: str, failures: list, elapsed: float, budget: float):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def test_criterion_1_sin_table_reproduction():
    expected = {
        2: {2: F(1, 3)},
        4: {4: F(1, 45), 2: F(2, 9)},
        6: {6: F(2, 945), 4: F(1, 45), 2: F(8, 45)},
        8: {8: F(1, 4725), 6: F(8, 2835), 4: F(14, 675), 2: F(16, 105)},
        10: {10: F(2, 93555), 8: F(1, 2835), 6: F(26, 8505), 4: F(164, 8505), 2: F(128, 945)},
        12: {
            12: F(1382, 638512875),
            10: F(4, 93555),
            8: F(31, 70875),
            6: F(556, 178605),
            4: F(3832, 212625),
            2: F(256, 2079),
        },
    }
    start = time.perf_counter()
    failures = [f"order {n}" for n, combo in expected.items() if sin_sum_exact(n) != combo]
    report(1, "sine power sum table", failures, time.perf_counter() - start, 5.0)


def test_criterion_2_r5_closed_form():
    start = time.perf_counter()
    golden = ClosedForm(
        scalar=F(1, 187110),
        pi_exp=10,
        phi_exp=1,
        body={-10: {10: F(1), 4: F(-22), 2: F(-231)}},
    )
    failures = [] if mean_square_odd(5) == golden else ["r=5 closed form differs from golden"]
    report(2, "rank-5 closed form", failures, time.perf_counter() - start, 10.0)


def test_criterion_3_r6_closed_form():
    start = time.perf_counter()
    golden = ClosedForm(
        scalar=F(1, 1277025750),
        pi_exp=12,
        phi_exp=1,
        body={-12: {12: F(691), 6: F(2860), 4: F(63063), 2: F(573300)}},
    )
    failures = [] if mean_square_even(6) == golden else ["r=6 closed form differs from golden"]
    report(3, "rank-6 closed form", failures, time.perf_counter() - start, 30.0)


def test_criterion_4_sigma2_intermediate():
    start = time.perf_counter()
    golden = {-8: {10: F(-5, 16632), 4: F(5, 756), 2: F(5, 72)}}
    failures = [] if sigma2(2) == golden else ["sigma2(2) differs from golden"]
    report(4, "sigma2(2) intermediate", failures, time.perf_counter() - start, 10.0)


def test_criterion_5_cancellation_suites():
    start = time.perf_counter()
    failures = []
    for h in range(1, 6):
        if kl_add(sigma1(h), sigma2(h)) != {}:
            failures.append(f"odd cancellation fails at h={h}")
    for h in range(2, 6):
        if sigma1_prime(h) != sigma2_prime(h):
            failures.append(f"even equality fails at h={h}")
    if sigma0(0) != {0: {1: F(1, 2)}}:
        failures.append("sigma0(0) is not phi(k)/2")
    for h in range(1, 6):
        if sigma0(h) != {}:
            failures.append(f"sigma0({h}) nonzero")
    for h in range(2, 6):
        if sigma0_prime(h) != {}:
            failures.append(f"sigma0_prime({h}) nonzero")
    report(5, "exact cancellation suites (h <= 5)", failures, time.perf_counter() - start, 300.0)


def test_criterion_6_oracle_equivalence_sweep():
    start = time.perf_counter()
    failures = []
    tol = mp.mpf(1e-9)
    for r in (1, 3, 4, 5, 6, 7, 8):
        if r % 2:
            forms = mean_square_odd(r)
            forms = forms if isinstance(forms, tuple) else (forms,)
        else:
            forms = (mean_square_even(r),)
        for k in (3, 4, 5, 7, 8, 9, 12):
            with mp.workprec(128):
                sym = mp.fsum(evaluate_closed_form(f, k, 128) for f in forms)
                num = mean_square_numeric(r, k, 128)
                rel = abs(sym - num) / abs(num)
            if not rel <= tol:
                failures.append(f"r={r} k={k}: rel={mp.nstr(rel, 3)}")
    report(6, "symbolic vs numeric sweep", failures, time.perf_counter() - start, 600.0)


def test_criterion_7_sin_numeric_sweep():
    start = time.perf_counter()
    failures = []
    tol = mp.mpf(1e-25)
    for n in range(0, 13, 2):
        combo = sin_sum_exact(n)
        for k in range(3, 51):
            exact = evaluate_jordan(combo, k)
            numeric = sin_sum_numeric(n, k, 128)
            with mp.workprec(128):
                exact_mp = mp.mpf(exact.numerator) / exact.denominator
                rel = abs(numeric - exact_mp) / exact_mp
            if not rel <= tol:
                failures.append(f"n={n} k={k}: rel={mp.nstr(rel, 3)}")
    report(7, "sine sums, exact vs direct", failures, time.perf_counter() - start, 60.0)


def test_criterion_8_realjs_identity():
    start = time.perf_counter()
    failures = []
    tol = mp.mpf(1e-9)
    for p in range(1, 6):
        for q in range(1, 6):
            for k in range(3, 13):
                exact = realjs_rhs_exact(p, q, k)
                direct = exp_sum_direct(p, q, k, precision_bits=128)
                with mp.workprec(128):
                    exact_mp = mp.mpf(exact.numerator) / exact.denominator
                    scale = max(abs(direct.real), mp.mpf(1))
                    rel = abs(exact_mp - direct.real) / scale
                if not rel <= tol:
                    failures.append(f"p={p} q={q} k={k}: rel={mp.nstr(rel, 3)}")
    report(8, "paired exponential double sum", failures, time.perf_counter() - start, 120.0)


def test_criterion_9_power_expansion_identity():
    start = time.perf_counter()
    failures = []
    for n in range(1, 7):
        for k in range(3, 13):
            for m in coprime_residues(k):
                if m == k:
                    continue
                if not power_exp_identity_check(n, m, k, precision_bits=128, tol=1e-10):
                    failures.append(f"n={n} m={m} k={k}")
    report(9, "power sum expansion identity", failures, time.perf_counter() - start, 60.0)


def test_criterion_10_principal_character():
    start = time.perf_counter()
    failures = []
    tol = mp.mpf(1e-12)
    for r in (2, 4, 6, 8):
        form = l_principal_closed_form(r)
        for k in range(3, 13):
            chi0 = next(c for c in characters_with_parity(k, "even") if c.is_principal)
            sym = evaluate_closed_form(form, k, 128)
            num = l_value_numeric(r, chi0, 128)
            with mp.workprec(128):
                rel = abs(sym - num) / abs(num)
            if not rel <= tol:
                failures.append(f"r={r} k={k}: rel={mp.nstr(rel, 3)}")
    report(10, "principal character values", failures, time.perf_counter() - start, 60.0)
