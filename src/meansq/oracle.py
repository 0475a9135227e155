"""Independent high-precision verification path.

Everything here works from first principles on the analytic side --
Dirichlet characters enumerated from the cyclic decomposition of the unit
group, L-values from finite Hurwitz-zeta (or digamma) combinations, raw
exponential sums evaluated term by term -- and never touches the symbolic
closed-form machinery.  Agreement between the two routes is the point.

Character values are carried as exact root-of-unity exponents (a rational
theta with chi(m) = e^(2*pi*i*theta)) until the final conversion to a
complex number, so no transcendental rounding enters the multiplicative
structure.

Mean squares do not enumerate characters.  The parity-restricted
orthogonality relation (Apostol, *Introduction to Analytic Number Theory*,
section 6.8 and chapter 12)

    sum_{chi(-1) = eps} chi(a) conj(chi(b)) = (phi(k)/2) ([a = b] + eps [a = -b])

collapses sum |L(r, chi)|^2 over chi(-1) = eps = (-1)^r into a sum over
coprime residues of squares of Hurwitz zeta values (of digamma values at
r = 1), so each of the phi(k) values is evaluated once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .exact import binomial, deriv_coeff
from .multiplicative import coprime_residues, euler_phi, factorize

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "character_group",
    "characters_with_parity",
    "l_value_numeric",
    "mean_square_numeric",
    "exp_sum_direct",
    "power_exp_identity_check",
]

_GUARD_BITS = 32


# ---------------------------------------------------------------------------
# Unit group structure and characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterGroup:
    """Cyclic decomposition of (Z/kZ)^x with a discrete-log table.

    ``factors`` lists (generator, order) pairs whose direct product is the
    whole unit group; ``dlog`` maps each coprime residue to its exponent
    vector over those generators.
    """

    modulus: int
    factors: tuple[tuple[int, int], ...]
    dlog: dict[int, tuple[int, ...]]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.factors)


@dataclass(frozen=True)
class DirichletCharacter:
    """Character determined by its exponents along the cyclic factors.

    chi(g_i) = e^(2*pi*i * exponents[i] / order_i); chi vanishes on
    residues sharing a factor with the modulus.
    """

    group: CharacterGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        reduced = tuple(e % o for e, o in zip(self.exponents, self.group.orders))
        object.__setattr__(self, "exponents", reduced)

    def unit_exponent(self, m: int) -> Fraction | None:
        """theta in [0, 1) with chi(m) = e^(2*pi*i*theta); None if chi(m) = 0."""
        vec = self.group.dlog.get(m % self.group.modulus)
        if vec is None:
            return None
        theta = sum(
            (Fraction(x * v, o) for x, v, o in zip(self.exponents, vec, self.group.orders)),
            Fraction(0),
        )
        return theta % 1

    def value(self, m: int):
        """chi(m) as a complex number at the current mpmath precision."""
        theta = self.unit_exponent(m)
        if theta is None:
            return mp.mpc(0)
        return mp.expjpi(2 * mp.mpf(theta.numerator) / theta.denominator)

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    @property
    def is_odd(self) -> bool:
        """True when chi(-1) = -1."""
        theta = self.unit_exponent(self.group.modulus - 1)
        return theta == Fraction(1, 2)


def _primitive_root_mod_prime(p: int) -> int:
    phi = p - 1
    prime_divs = factorize(phi).primes
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


def _prime_power_factors(p: int, a: int) -> list[tuple[int, int]]:
    """(generator, order) pairs for (Z/p^aZ)^x."""
    if p == 2:
        if a == 1:
            return []
        if a == 2:
            return [(3, 2)]
        # 2^a, a >= 3: <-1> x <3>, orders 2 and 2^(a-2)
        pa = 2**a
        return [(pa - 1, 2), (3, 2 ** (a - 2))]
    pa = p**a
    g = _primitive_root_mod_prime(p)
    if a > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % pa, pa - pa // p)]


def character_group(k: int) -> CharacterGroup:
    """Decomposition of (Z/kZ)^x, prime power by prime power, glued by CRT."""
    if k < 1:
        raise ValueError(f"character_group: k must be >= 1, got {k}")
    factors: list[tuple[int, int]] = []
    for p, a in factorize(k).factors:
        pa = p**a
        rest = k // pa
        for g, order in _prime_power_factors(p, a):
            # lift: congruent to g mod p^a and to 1 mod k/p^a
            if rest == 1:
                lifted = g % k
            else:
                inv = pow(pa, -1, rest)
                lifted = (g + pa * ((1 - g) * inv % rest)) % k
            factors.append((lifted, order))

    dlog: dict[int, tuple[int, ...]] = {}
    orders = [o for _, o in factors]
    for vec in itertools.product(*(range(o) for o in orders)):
        m = 1
        for (g, _), e in zip(factors, vec):
            m = m * pow(g, e, k) % k
        dlog[m] = vec
    if len(dlog) != int(euler_phi(k)):
        raise ArithmeticError(f"character_group: decomposition for k={k} is not a direct product")
    return CharacterGroup(modulus=k, factors=tuple(factors), dlog=dlog)


def characters_with_parity(k: int, parity: str) -> list[DirichletCharacter]:
    """All characters mod k with chi(-1) = +1 ("even") or -1 ("odd").

    Exactly phi(k)/2 of each for k >= 3.  Moduli 1 and 2 are rejected: every
    character there is even and the parity split is meaningless.
    """
    if k < 3:
        raise ValueError(f"characters_with_parity: k must be >= 3, got {k}")
    if parity not in ("even", "odd"):
        raise ValueError(f"characters_with_parity: parity must be 'even' or 'odd', got {parity!r}")
    group = character_group(k)
    want_odd = parity == "odd"
    out = [
        chi
        for vec in itertools.product(*(range(o) for o in group.orders))
        if (chi := DirichletCharacter(group, vec)).is_odd == want_odd
    ]
    return out


# ---------------------------------------------------------------------------
# L-values and mean squares
# ---------------------------------------------------------------------------

def l_value_numeric(r: int, chi: DirichletCharacter, precision_bits: int = 128):
    """L(r, chi) as a finite combination of Hurwitz zeta values.

    L(r, chi) = k^(-r) sum_{a=1}^{k} chi(a) zeta(r, a/k), exact as an
    identity for r >= 2, with each zeta evaluated by mpmath at working
    precision (Euler-Maclaurin with rigorous internal error control).

    r = 1 is allowed for odd (hence non-principal) chi only; there the
    Hurwitz expansion around the pole leaves L(1, chi) =
    -(1/k) sum_a chi(a) psi(a/k) with psi the digamma function, again a
    finite combination.  Tail-truncated series are never used.
    """
    if precision_bits < 53:
        raise ValueError(f"l_value_numeric: precision_bits must be >= 53, got {precision_bits}")
    if r < 1:
        raise ValueError(f"l_value_numeric: r must be >= 1, got {r}")
    if r == 1 and not chi.is_odd:
        raise ValueError("l_value_numeric: r = 1 needs an odd character (the series only converges conditionally, and only the digamma route applies)")
    k = chi.group.modulus
    with mp.workprec(precision_bits + _GUARD_BITS):
        total = mp.mpc(0)
        for a in coprime_residues(k):
            x = mp.mpf(a) / k
            term = mp.digamma(x) if r == 1 else mp.zeta(r, x)
            total += chi.value(a) * term
        total = -total / k if r == 1 else total / mp.mpf(k) ** r
    with mp.workprec(precision_bits):
        total = +total
    return total


def mean_square_numeric(r: int, k: int, precision_bits: int = 128):
    """sum over chi mod k with chi(-1) = (-1)^r of |L(r, chi)|^2.

    The parity filter matches the sign structure of the closed forms: odd r
    pairs with odd characters, even r with even ones.  With eps = (-1)^r
    and Z_a = zeta(r, a/k), expanding L(r, chi) = k^(-r) sum_a chi(a) Z_a
    and applying the parity-restricted orthogonality relation (Apostol,
    section 6.8 and chapter 12) leaves a sum over residues:

        sum |L(r, chi)|^2
            = phi(k) / (2 k^(2r)) * sum_{a < k/2, (a, k) = 1} (Z_a + eps Z_{k-a})^2.

    At r = 1 only odd characters occur and L(1, chi) = -(1/k) sum_a chi(a)
    psi(a/k), so the same sum holds with Z_a = psi(a/k) (digamma) and
    prefactor phi(k)/(2 k^2).  Each Z_a is evaluated once, at
    ``precision_bits`` plus twice the guard bits; the result is rounded to
    ``precision_bits``.  Summation is exact accumulation (fsum) over
    non-negative terms, so residue order cannot affect the result.
    """
    if k < 3:
        raise ValueError(f"mean_square_numeric: k must be >= 3, got {k}")
    if r < 1:
        raise ValueError(f"mean_square_numeric: r must be >= 1, got {r}")
    if precision_bits < 53:
        raise ValueError(f"mean_square_numeric: precision_bits must be >= 53, got {precision_bits}")
    eps = -1 if r % 2 else 1
    with mp.workprec(precision_bits + 2 * _GUARD_BITS):
        z = {}
        for a in coprime_residues(k):
            x = mp.mpf(a) / k
            z[a] = mp.digamma(x) if r == 1 else mp.zeta(r, x)
        total = mp.fsum((z[a] + eps * z[k - a]) ** 2 for a in z if 2 * a < k)
        total = total * int(euler_phi(k)) / (2 * mp.mpf(k) ** (2 * r))
    with mp.workprec(precision_bits):
        total = +total
    return total


# ---------------------------------------------------------------------------
# Raw exponential sums
# ---------------------------------------------------------------------------

def _unit_root(num: int, den: int):
    """e^(2*pi*i*num/den) at the current precision."""
    num %= den
    return mp.expjpi(2 * mp.mpf(num) / den)


def exp_sum_direct(p: int, q: int, k: int, conjugate_second: bool, precision_bits: int = 128):
    """Triple-loop evaluation of the paired power-twisted exponential sum.

    sum over coprime m of (sum_{j<k} j^p e^(2*pi*i*m*j/k)) times
    (sum_{s<k} s^q e^(+-2*pi*i*m*s/k)); the second factor is conjugated when
    ``conjugate_second`` is set.
    """
    if p < 1 or q < 1:
        raise ValueError(f"exp_sum_direct: p, q must be >= 1, got ({p}, {q})")
    if k < 3:
        raise ValueError(f"exp_sum_direct: k must be >= 3, got {k}")
    if precision_bits < 53:
        raise ValueError(f"exp_sum_direct: precision_bits must be >= 53, got {precision_bits}")
    with mp.workprec(precision_bits + _GUARD_BITS):
        total = mp.mpc(0)
        for m in coprime_residues(k):
            first = mp.fsum((j**p * _unit_root(m * j, k) for j in range(1, k)), absolute=False)
            sign = -1 if conjugate_second else 1
            second = mp.fsum((s**q * _unit_root(sign * m * s, k) for s in range(1, k)), absolute=False)
            total += first * second
    with mp.workprec(precision_bits):
        total = +total
    return total


def power_exp_identity_check(n: int, m: int, k: int, precision_bits: int = 128, tol: float = 1e-10) -> bool:
    """Check the finite expansion of sum_{j<k} j^n e^(2*pi*i*m*j/k).

    Left side: the sum evaluated directly.  Right side: the derivative
    coefficient expansion

        sum_{j=1}^{n} C(n,j) k^j sum_{alpha=1}^{n-j+1}
            A(n-j, alpha) / (e^(2*pi*i*m/k) - 1)^alpha.

    True iff they agree to ``tol`` relative at the given precision.
    """
    if n < 1:
        raise ValueError(f"power_exp_identity_check: n must be >= 1, got {n}")
    if k < 3:
        raise ValueError(f"power_exp_identity_check: k must be >= 3, got {k}")
    if math.gcd(m, k) != 1:
        raise ValueError(f"power_exp_identity_check: gcd(m, k) must be 1, got m={m}, k={k}")
    if precision_bits < 53:
        raise ValueError(f"power_exp_identity_check: precision_bits must be >= 53, got {precision_bits}")
    with mp.workprec(precision_bits + _GUARD_BITS):
        lhs = mp.fsum((j**n * _unit_root(m * j, k) for j in range(1, k)), absolute=False)
        w = _unit_root(m, k) - 1
        rhs = mp.mpc(0)
        for j in range(1, n + 1):
            inner = mp.fsum(
                (int(deriv_coeff(n - j, alpha)) * w**-alpha for alpha in range(1, n - j + 2)),
                absolute=False,
            )
            rhs += int(binomial(n, j)) * mp.mpf(k) ** j * inner
        scale = max(abs(lhs), abs(rhs), mp.mpf(1e-30))
        return bool(abs(lhs - rhs) / scale <= tol)
