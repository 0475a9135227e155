"""Multiplicative arithmetic functions over concrete moduli."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

__all__ = [
    "Factorization",
    "factorize",
    "jordan_totient",
    "euler_phi",
    "coprime_residues",
]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered (prime, exponent) list."""

    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple([p for p, _ in self.factors])


# The primes below 1000, the first divisors ``factorize`` tries.
_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division; n = 1 gives ().

    Moduli here are user-entered (desk scale, <= ~10^6), so trial division
    is plenty and keeps this deterministic and dependency-free.  It divides
    by the table of primes below 1000 first, which settles every n < 10^6,
    and only past the table goes on to the odd numbers from 1001.
    """
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    factors = []
    rest = n
    for p in chain(_SMALL_PRIMES, count(1001, 2)):
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
    return Factorization(factors=tuple(factors))


def _jordan_table(indices, k: int, primes: tuple[int, ...]) -> dict[int, int]:
    """{s: J_s(k)} for every s of the ascending ``indices``, each formed once, exact.

    ``primes`` are the primes of k, so one factorization serves every index.
    J_s(k) = k^s * prod_{p | k} (1 - p^(-s)) is formed in integers as
    m^s * prod_{p | k} (p^s - 1) with m = k / prod_{p | k} p, which needs no
    division and is about twice as fast as dividing k^s by each p^s.
    """
    if indices and indices[0] < 1:
        raise ValueError(f"jordan_totient: s must be >= 1, got {indices[0]}")
    m = k // math.prod(primes)
    table = {}
    for s in indices:
        v = m**s
        for p in primes:
            v *= p**s - 1
        table[s] = v
    return table


def jordan_totient(s: int, k: int) -> Fraction:
    """J_s(k) = k^s * prod_{p | k} (1 - p^(-s)), exact.

    Returned as a Fraction (the value is always an integer) because it feeds
    straight into rational linear combinations.
    """
    if s < 1:
        raise ValueError(f"jordan_totient: s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"jordan_totient: k must be >= 1, got {k}")
    return Fraction(_jordan_table((s,), k, factorize(k).primes)[s])


def euler_phi(k: int) -> Fraction:
    """Euler's totient, phi(k) = J_1(k)."""
    return jordan_totient(1, k)


def coprime_residues(k: int) -> list[int]:
    """Ascending list of m in [1, k] with gcd(m, k) = 1."""
    if k < 1:
        raise ValueError(f"coprime_residues: k must be >= 1, got {k}")
    return [m for m in range(1, k + 1) if math.gcd(m, k) == 1]
