"""Tests for the exact combinatorial scalar tables."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from meansq.exact import bernoulli, binomial, deriv_coeff, factorial


class TestBinomial:
    def test_pascal_value(self):
        assert binomial(5, 2) == 10

    def test_boundary(self):
        assert binomial(7, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_identity(self):
        for n in range(1, 20):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle (B_1 = +1/2 convention; flip sign at 1)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


class TestBernoulli:
    def test_b0(self):
        assert bernoulli(0) == 1

    def test_b1_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_odd_vanish(self):
        assert bernoulli(3) == 0
        for n in range(3, 31, 2):
            assert bernoulli(n) == 0

    def test_b12(self):
        # frozen from the binomial recurrence solved upward from B_0
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_akiyama_tanigawa(self):
        # the oracle runs no recurrence, so it also checks the odd-index shortcut
        oracle = akiyama_tanigawa(120)
        for n in range(121):
            expected = -oracle[n] if n == 1 else oracle[n]
            assert bernoulli(n) == expected, f"B_{n}"

    def test_binomial_sum_identity(self):
        # sum_{q=0}^{m} C(m, q) B_q = B_m for m >= 2
        for m in range(2, 31):
            total = sum(binomial(m, q) * bernoulli(q) for q in range(m + 1))
            assert total == bernoulli(m), f"m={m}"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


def stirling2(n, k):
    """Second-kind Stirling numbers by the triangular recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestDerivCoeff:
    def test_base(self):
        assert deriv_coeff(0, 1) == 1

    def test_small_values(self):
        assert deriv_coeff(2, 3) == 2
        assert deriv_coeff(1, 1) == -1

    def test_top_coefficient(self):
        # A(r-1, r) = (-1)^(r-1) (r-1)!
        for r in range(1, 13):
            assert deriv_coeff(r - 1, r) == (-1) ** (r - 1) * math.factorial(r - 1)

    def test_integer_valued(self):
        for q in range(9):
            for j in range(1, q + 2):
                assert deriv_coeff(q, j).denominator == 1

    def test_stirling_cross_check(self):
        # A(q, j) = (-1)^q (j-1)! S2(q+1, j): an independent identity
        for q in range(8):
            for j in range(1, q + 2):
                expected = (-1) ** q * math.factorial(j - 1) * stirling2(q + 1, j)
                assert deriv_coeff(q, j) == expected

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            deriv_coeff(2, 0)
        with pytest.raises(ValueError):
            deriv_coeff(2, 4)
        with pytest.raises(ValueError):
            deriv_coeff(-1, 1)

    def test_derivative_identity(self):
        # q-th derivative of 1/(e^w - 1) vs sum_j A(q,j)/(e^w-1)^j at random
        # complex points away from the poles, to 1e-6 relative.
        rng = random.Random(20240811)
        points = []
        while len(points) < 20:
            w = mp.mpc(rng.uniform(-2, 2), rng.uniform(-3, 3))
            if abs(mp.e**w - 1) > 0.1:
                points.append(w)
        with mp.workprec(256):
            f = lambda w: 1 / (mp.e**w - 1)
            for q in range(1, 9):
                for w in points:
                    numeric = mp.diff(f, w, q)
                    ew = mp.e**w - 1
                    exact = mp.fsum(
                        (int(deriv_coeff(q, j)) * ew**-j for j in range(1, q + 2)),
                        absolute=False,
                    )
                    assert abs(numeric - exact) / abs(exact) < 1e-6, (q, w)


def test_factorial_matches_math():
    for n in range(15):
        assert factorial(n) == math.factorial(n)
    with pytest.raises(ValueError):
        factorial(-1)


# Builds B_0..B_160 and the rows A(q, .) for q <= 160 from nothing, from four
# threads started at one barrier (or from one), with the interpreter switching
# threads every microsecond, then prints every entry.
COLD_BUILD = """
import sys, threading
from meansq.exact import bernoulli, deriv_coeff
threads = int(sys.argv[1])
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(threads)
errors = []

def build():
    barrier.wait()
    try:
        bernoulli(160)
        deriv_coeff(160, 1)
    except Exception as error:
        errors.append(repr(error))

workers = [threading.Thread(target=build) for _ in range(threads)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join(timeout=60)
assert not any(worker.is_alive() for worker in workers) and not errors, errors
print([bernoulli(n) for n in range(161)])
print([deriv_coeff(q, j) for q in range(161) for j in range(1, q + 2)])
"""


def cold_build(threads: int) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", COLD_BUILD, str(threads)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_concurrent_cold_builds_give_the_serial_tables():
    # each table entry is computed from entries of lower index only, so
    # threads that build the tables at once store the values one thread does
    assert cold_build(4) == cold_build(1)
