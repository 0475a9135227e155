"""Multiplicative arithmetic functions over concrete moduli, and the
library's one rule for integer arguments, ``_check_int``.

One trial-division routine, ``_factor``, factors every integer: the primes
below 1000 are tried in blocks of 16, each block screened by one gcd with
the product of its primes, so a block that holds no divisor costs one C
call.  The oracle reads it directly for the primes of k and of p - 1.

The last 16 moduli seen each keep one entry: k / rad k, the primes of k and
the J_s(k) formed so far, built in that one pass.  Every evaluation at k
reads and fills that entry, so a form, a sine sum and ``jordan_totient`` at
one k share one factorization and form each J_s(k) once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "jordan_totient",
    "euler_phi",
    "coprime_residues",
]


def _check_int(function: str, param: str, value, least: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) of at least ``least``.

    Every integer argument and integer table key of the library is checked
    here, so one rule says what an integer is; ``least=None`` allows any
    int.  The message names the function and the parameter: ``<function>:
    <param> must be >= <least>, got <value>`` for an int below its least,
    ``<function>: <param> must be an integer >= <least>, got <value!r>``
    for anything else (``must be an integer, got <value!r>`` with no least).
    """
    if type(value) is not int:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{function}: {param} must be an integer{bound}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{function}: {param} must be >= {least}, got {value}")


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    composite = bytearray(n)
    for p in range(2, math.isqrt(n - 1) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, n, p))
    return tuple([p for p in range(2, n) if not composite[p]])


# The primes below 1000, the first divisors tried, cut into blocks of 16:
# (first prime squared, the block's primes, their product).  One gcd with the
# product tells whether any prime of a block divides what is left of n.
_SMALL_PRIMES = _sieve(1000)
_PRIME_BLOCKS = tuple([
    (block[0] ** 2, block, math.prod(block))
    for block in (_SMALL_PRIMES[i : i + 16] for i in range(0, len(_SMALL_PRIMES), 16))
])


def _factor(n: int) -> tuple[list[int], list[int], int]:
    """(the primes of n ascending, their exponents, n / rad n) by trial division.

    The one factorization routine of the package.  Callers pass n >= 1: at
    n = 0 it never stops.  Moduli here are user-entered (desk scale, <=
    ~10^6), so trial division is plenty and keeps this deterministic and
    dependency-free.  Each block of the primes below 1000 is screened by one
    ``math.gcd`` with its product, and only the primes of a block sharing a
    factor with n are tried, until that gcd is used up.  The scan stops at
    the first block whose first prime squared exceeds what is left of n;
    that rest is then 1 or a prime.  This settles every n < 10^6.  Past the
    table it goes on with the odd numbers from 1001.  n / rad n is
    multiplied up from every repeated division.
    """
    primes = []
    exponents = []
    m = 1
    rest = n
    for square, block, product in _PRIME_BLOCKS:
        if square > rest:
            break
        g = math.gcd(rest, product)
        if g > 1:
            for p in block:
                if g % p == 0:
                    rest //= p
                    e = 1
                    while rest % p == 0:
                        rest //= p
                        m *= p
                        e += 1
                    primes.append(p)
                    exponents.append(e)
                    g //= p
                    if g == 1:
                        break
    else:
        p = 1001
        while p * p <= rest:
            if rest % p == 0:
                rest //= p
                e = 1
                while rest % p == 0:
                    rest //= p
                    m *= p
                    e += 1
                primes.append(p)
                exponents.append(e)
            p += 2
    if rest > 1:
        primes.append(rest)
        exponents.append(1)
    return primes, exponents, m


@functools.lru_cache(maxsize=16)
def _modulus(k: int) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """(k / rad k, the primes of k, {s: J_s(k)} filled by ``_jordan_table``).

    One entry per modulus, for the last 16 moduli asked for, built straight
    from ``_factor``; every caller has passed k through ``_check_int``, so k
    is always an int >= 1.
    """
    primes, _, m = _factor(k)
    return m, tuple(primes), {}


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
