"""Multiplicative arithmetic functions over concrete moduli, and the
library's one rule for integer arguments, ``_check_int``.

The last 16 moduli seen each keep one entry: k / rad k, the primes of k and
the J_s(k) formed so far.  Every evaluation at k reads and fills that entry,
so a form, a sine sum and ``jordan_totient`` at one k share one
factorization and form each J_s(k) once.
"""

from __future__ import annotations

import functools
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


def _check_int(function: str, param: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) of at least ``least``.

    Every integer argument of the library that has a least value is checked
    here, so one rule says what an integer is.  The message names the
    function and the parameter: ``<function>: <param> must be >= <least>,
    got <value>`` for an int below its least, ``<function>: <param> must be
    an integer >= <least>, got <value!r>`` for anything else.
    """
    if type(value) is not int or value < least:
        kind = "" if type(value) is int else "an integer "
        raise ValueError(f"{function}: {param} must be {kind}>= {least}, got {value!r}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered (prime, exponent) list."""

    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple([p for p, _ in self.factors])


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, math.isqrt(n - 1) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, n, p))
    return tuple([p for p in range(2, n) if not composite[p]])


# The primes below 1000, the first divisors ``factorize`` tries.
_SMALL_PRIMES = _sieve(1000)


def factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division; n = 1 gives ().

    Moduli here are user-entered (desk scale, <= ~10^6), so trial division
    is plenty and keeps this deterministic and dependency-free.  It divides
    by the table of primes below 1000 first, which settles every n < 10^6,
    and only past the table goes on to the odd numbers from 1001.
    """
    _check_int("factorize", "n", n, 1)
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


@functools.lru_cache(maxsize=16)
def _modulus(k: int) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """(k / rad k, the primes of k, {s: J_s(k)} filled by ``_jordan_table``).

    One entry per modulus, for the last 16 moduli asked for; every caller
    has passed k through ``_check_int``, so k is always an int.
    """
    primes = factorize(k).primes
    return k // math.prod(primes), primes, {}


def _jordan_table(indices, k: int) -> dict[int, int]:
    """The table {s: J_s(k)} of k, holding every s >= 1 of ``indices``, exact.

    The table is k's entry of the modulus cache, shared by every caller at k
    and read-only to them: an index missing from it is formed and kept, so
    one factorization serves every evaluation at k and each J_s(k) is formed
    once.  J_s(k) = k^s * prod_{p | k} (1 - p^(-s)) is formed in integers as
    m^s * prod_{p | k} (p^s - 1) with m = k / prod_{p | k} p, which needs no
    division and is about twice as fast as dividing k^s by each p^s.
    Callers check that every index is >= 1.
    """
    m, primes, table = _modulus(k)
    for s in indices:
        if s not in table:
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
    _check_int("jordan_totient", "s", s, 1)
    _check_int("jordan_totient", "k", k, 1)
    return Fraction(_jordan_table((s,), k)[s])


def euler_phi(k: int) -> Fraction:
    """Euler's totient, phi(k) = J_1(k)."""
    _check_int("euler_phi", "k", k, 1)
    return jordan_totient(1, k)


def coprime_residues(k: int) -> list[int]:
    """Ascending list of m in [1, k] with gcd(m, k) = 1."""
    _check_int("coprime_residues", "k", k, 1)
    return [m for m in range(1, k + 1) if math.gcd(m, k) == 1]
