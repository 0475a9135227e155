"""Tests for factorization and the totient functions."""

import math
import random
from itertools import chain, count

import pytest

from meansq import multiplicative
from meansq.multiplicative import _factor, coprime_residues, euler_phi, jordan_totient

# The primes below 1000, found by trial division.
TRIAL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def factor_pairs(n):
    """``_factor(n)`` as (prime, exponent) pairs; n >= 1, as every caller of ``_factor`` checks."""
    primes, exponents, _ = _factor(n)
    return tuple(zip(primes, exponents))


class TestFactorize:
    def test_composite(self):
        assert factor_pairs(12) == ((2, 2), (3, 1))

    def test_one(self):
        assert factor_pairs(1) == ()

    def test_prime(self):
        assert factor_pairs(97) == ((97, 1),)

    def test_reconstruction(self):
        for n in range(1, 2000):
            primes, exponents, m = _factor(n)
            assert math.prod(p**e for p, e in zip(primes, exponents)) == n
            assert primes == sorted(primes)
            assert m == n // math.prod(primes)

    @pytest.mark.parametrize(
        "n,factors",
        [
            (997 * 1009, ((997, 1), (1009, 1))),
            (997**2, ((997, 2),)),
            (1009**2, ((1009, 2),)),
            (10**6 + 3, ((10**6 + 3, 1),)),
            (2 * (10**6 + 3), ((2, 1), (10**6 + 3, 1))),
        ],
    )
    def test_primes_at_and_past_the_table(self, n, factors):
        # 997 is the last prime of the table of primes below 1000; past it
        # the trial division goes on with the odd numbers from 1001
        assert factor_pairs(n) == factors

    def test_prime_table_is_the_primes_below_1000(self):
        assert len(TRIAL_PRIMES) == 168
        assert multiplicative._SMALL_PRIMES == TRIAL_PRIMES


def reference_factors(n):
    """The plain trial division: each prime below 1000 in turn, then the odd numbers from 1001."""
    factors = []
    rest = n
    for p in chain(TRIAL_PRIMES, count(1001, 2)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


# n at the end of the prime table and past it.
PAST_THE_TABLE = (997**2, 997 * 1009, 1009**2, 10**6 + 3, 2 * (10**6 + 3), 999983 * 997, 2**20, 720720)


class TestBlockScreen:
    """``_factor`` and the per-modulus entry come from the gcd-screened blocks."""

    @staticmethod
    def check(n):
        factors = reference_factors(n)
        assert factor_pairs(n) == factors, n
        primes = tuple(p for p, _ in factors)
        assert multiplicative._modulus.__wrapped__(n) == (n // math.prod(primes), primes, {}), n

    def test_matches_trial_division_up_to_2e5(self):
        for n in range(1, 2 * 10**5 + 1):
            self.check(n)

    def test_matches_trial_division_at_every_prime(self):
        # a prime of a late block divides n past 2e5 only, as p^2 or p times a
        # larger prime; the first and last primes of the blocks are among these
        primes = (*TRIAL_PRIMES, 1009)
        for p, q in zip(primes, primes[1:]):
            for n in (p**2, p**3, p * q):
                self.check(n)

    @pytest.mark.parametrize("n", PAST_THE_TABLE)
    def test_matches_trial_division_past_the_table(self, n):
        self.check(n)


class TestJordanTotient:
    def test_j1_is_phi(self):
        assert jordan_totient(1, 12) == 4

    def test_small_values(self):
        assert jordan_totient(2, 3) == 8  # 9 * (1 - 1/9)
        assert jordan_totient(2, 4) == 12  # 16 * (1 - 1/4)

    def test_integer_valued(self):
        for s in range(1, 7):
            for k in range(1, 200):
                assert jordan_totient(s, k).denominator == 1

    def test_multiplicative(self):
        rng = random.Random(411)
        checked = 0
        while checked < 200:
            m = rng.randrange(2, 10**2)
            n = rng.randrange(2, 10**4 // m + 1)
            if math.gcd(m, n) != 1:
                continue
            s = rng.randrange(1, 13)
            assert jordan_totient(s, m * n) == jordan_totient(s, m) * jordan_totient(s, n)
            checked += 1

    def test_divisor_sum_identity(self):
        # sum_{d | n} J_s(d) = n^s, checked by brute-force divisor enumeration
        for n in range(1, 501):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            for s in range(1, 7):
                assert sum(jordan_totient(s, d) for d in divisors) == n**s

    def test_domain(self):
        with pytest.raises(ValueError):
            jordan_totient(0, 5)
        with pytest.raises(ValueError):
            jordan_totient(2, 0)


class TestEulerPhiAndResidues:
    def test_examples(self):
        assert euler_phi(12) == 4
        assert euler_phi(1) == 1
        assert euler_phi(7) == 6

    def test_residue_examples(self):
        assert coprime_residues(12) == [1, 5, 7, 11]
        assert coprime_residues(3) == [1, 2]
        assert coprime_residues(1) == [1]

    def test_counts_match_phi(self):
        for k in range(1, 1001):
            assert len(coprime_residues(k)) == euler_phi(k)

    def test_phi_equals_j1(self):
        for k in range(1, 300):
            assert euler_phi(k) == jordan_totient(1, k)
