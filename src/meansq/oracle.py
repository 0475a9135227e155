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

Both numeric routes, one L-value and one mean square, take those values from
one routine, ``_hurwitz_values``, which races them across the CPUs this
process may use.  The unit group is factored with ``multiplicative._factor``
and the identity check reads rows of ``exact._deriv_row``, the routines the
exact engine uses.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import marshal
import math
import os
import select
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import MPZ

from .exact import _deriv_row
from .multiplicative import _check_int, _factor, coprime_residues

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
    whole unit group; ``dlog`` maps each coprime residue mod k (0 for k = 1)
    to its exponent vector over those generators.
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
    residues sharing a factor with the modulus.  ``exponents`` is a tuple
    of ints, one per cyclic factor (``()`` mod 1 and 2), stored reduced.
    """

    group: CharacterGroup
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.group, CharacterGroup):
            raise ValueError(f"DirichletCharacter: group must be a CharacterGroup, got {type(self.group).__name__}")
        orders, exps = self.group.orders, self.exponents
        if type(exps) is not tuple or len(exps) != len(orders) or any(type(e) is not int for e in exps):
            raise ValueError(
                f"DirichletCharacter: exponents must be a tuple of ints, one per cyclic factor "
                f"({len(orders)} mod {self.group.modulus}), got {exps!r}"
            )
        object.__setattr__(self, "exponents", tuple(e % o for e, o in zip(exps, orders)))

    def unit_exponent(self, m: int) -> Fraction | None:
        """theta in [0, 1) with chi(m) = e^(2*pi*i*theta) for any int m; None if chi(m) = 0."""
        _check_int("DirichletCharacter.unit_exponent", "m", m)
        vec = self.group.dlog.get(m % self.group.modulus)
        if vec is None:
            return None
        theta = sum(
            (Fraction(x * v, o) for x, v, o in zip(self.exponents, vec, self.group.orders)),
            Fraction(0),
        )
        return theta % 1

    def value(self, m: int):
        """chi(m) for any int m, as a complex number at the current mpmath precision."""
        _check_int("DirichletCharacter.value", "m", m)
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
    prime_divs, _, _ = _factor(phi)
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
    _check_int("character_group", "k", k, 1)
    factors: list[tuple[int, int]] = []
    primes, exponents, _ = _factor(k)
    for p, a in zip(primes, exponents):
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
        dlog[m % k] = vec  # at k = 1, m = 1 is the residue 0 that lookups read
    if len(dlog) != len(coprime_residues(k)):
        raise ArithmeticError(f"character_group: decomposition for k={k} is not a direct product")
    return CharacterGroup(modulus=k, factors=tuple(factors), dlog=dlog)


def characters_with_parity(k: int, parity: str) -> list[DirichletCharacter]:
    """All characters mod k with chi(-1) = +1 ("even") or -1 ("odd").

    Exactly phi(k)/2 of each for k >= 3.  Moduli 1 and 2 are rejected: every
    character there is even and the parity split is meaningless.
    """
    _check_int("characters_with_parity", "k", k, 3)
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
    finite combination.  Tail-truncated series are never used.  The
    values come from ``_hurwitz_values`` at ``precision_bits`` plus the
    guard bits, raced across CPUs as in ``mean_square_numeric``.
    """
    _check_int("l_value_numeric", "precision_bits", precision_bits, 53)
    _check_int("l_value_numeric", "r", r, 1)
    if not isinstance(chi, DirichletCharacter):
        raise ValueError(f"l_value_numeric: chi must be a DirichletCharacter, got {type(chi).__name__}")
    if r == 1 and not chi.is_odd:
        raise ValueError("l_value_numeric: r = 1 needs an odd character (the series only converges conditionally, and only the digamma route applies)")
    k = chi.group.modulus
    with mp.workprec(precision_bits + _GUARD_BITS):
        total = mp.mpc(0)
        for a, term in _hurwitz_values(r, k).items():
            total += chi.value(a) * term
        total = -total / k if r == 1 else total / mp.mpf(k) ** r
    with mp.workprec(precision_bits):
        total = +total
    return total


class _Helper:
    """A helper's pid, this process's ends of its two pipes, its CPU and its backlog.

    ``cpu`` is the one CPU it is pinned to (None until pinned); ``owed``
    counts the calls it was given a share in and has not yet closed.
    """

    def __init__(self, pid: int, requests: int, replies: int) -> None:
        self.pid, self.requests, self.replies = pid, requests, replies
        self.cpu: int | None = None
        self.owed = 0


# Helper processes for _hurwitz_values, forked on first use and kept for the
# life of the process.
_helpers: list[_Helper] = []
_calls = itertools.count()


def _send(fd: int, obj) -> None:
    data = marshal.dumps(obj)
    data = len(data).to_bytes(4, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _recv(fd: int):
    """One frame written by ``_send``; EOFError once the writer is gone."""

    def read(n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = os.read(fd, n - len(data))
            if not chunk:
                raise EOFError("helper pipe closed")
            data += chunk
        return data

    return marshal.loads(read(int.from_bytes(read(4), "little")))


def _hurwitz_share(r: int, k: int, share: list[int], prec: int) -> list:
    """Z_a = psi(a/k) at r = 1, else zeta(r, a/k), for each a in ``share``."""
    with mp.workprec(prec):
        values = []
        for a in share:
            x = mp.mpf(a) / k
            values.append(mp.digamma(x) if r == 1 else mp.zeta(r, x))
        return values


def _serve(requests_fd: int, replies_fd: int) -> None:
    """A helper's loop: one (call, r, k, prec, first, step) request per call.

    Its share is every step-th index of ``coprime_residues(k)`` from
    ``first``.  It answers those values in order as (call, index, _mpf_
    tuple) until the caller's end-of-call frame, None, is waiting, then
    reads that frame and closes the call with (call, -1, None).  A request
    names its share instead of listing it, so that it always fits in the
    pipe: a long list would block the caller's write to a stopped helper.
    Fds 0 and 1 point at /dev/null first, so that a helper holds none of the
    caller's stdin or stdout pipes.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.close(devnull)
    while True:
        call, r, k, prec, first, step = _recv(requests_fd)
        residues = coprime_residues(k)
        for i in range(first, len(residues), step):
            if select.select([requests_fd], [], [], 0)[0]:
                break
            (value,) = _hurwitz_share(r, k, [residues[i]], prec)
            s, m, e, bc = value._mpf_
            _send(replies_fd, (call, i, (s, int(m), e, bc)))
        _recv(requests_fd)  # the end-of-call frame
        _send(replies_fd, (call, -1, None))


def _start_helpers(count: int) -> list[_Helper]:
    while len(_helpers) < count:
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:  # the fork hook has already closed the other helpers' pipes
            try:
                os.close(requests_w)
                os.close(replies_r)
                _serve(requests_r, replies_w)
            finally:  # on EOF or any error: never return into the caller's code
                os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        _helpers.append(_Helper(pid, requests_w, replies_r))
    return _helpers[:count]


def _drop_helpers() -> list[int]:
    """Close this process's ends of the helpers' pipes and forget them; return their pids."""
    pids = []
    while _helpers:
        helper = _helpers.pop()
        for fd in (helper.requests, helper.replies):
            with contextlib.suppress(OSError):
                os.close(fd)
        pids.append(helper.pid)
    return pids


def _stop_helpers() -> None:
    """Kill and reap every helper; the next parallel call forks new ones."""
    for pid in _drop_helpers():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


if hasattr(os, "register_at_fork"):
    # A forked child, a helper included, never touches its parent's helpers.
    os.register_at_fork(after_in_child=_drop_helpers)
    atexit.register(_stop_helpers)


def _collect(helpers: list[_Helper], call: int, values: list) -> None:
    """Read every reply that is ready now; values for earlier calls are dropped."""
    by_fd = {h.replies: h for h in helpers}
    while ready := select.select(list(by_fd), [], [], 0)[0]:
        for fd in ready:
            reply_call, i, value = _recv(fd)
            if value is None:
                by_fd[fd].owed -= 1
            elif reply_call == call:
                s, m, e, bc = value
                values[i] = mp.make_mpf((s, MPZ(m), e, bc))


def _hurwitz_values(r: int, k: int) -> dict:
    """{a: Z_a} over ``coprime_residues(k)`` ascending, from ``_hurwitz_share`` at the current precision.

    The work is raced from both ends.  Each of up to (schedulable CPUs - 1)
    helpers, pinned to one of the other CPUs, gets one request per call: an
    interleaved share of the residues, which it walks from the front,
    answering with exact ``_mpf_`` tuples.  This process, pinned for the call
    to the first CPU it may use, walks the whole list from the back, takes
    whatever replies are ready before each index and computes the value
    itself if none has come, so it never waits on a helper.  At the end it
    tells each helper to stop; replies that come later are dropped.  A
    helper that has not yet closed two calls, being stopped or stuck, gets
    no share, which bounds its backlog.

    It stays in-process for one residue, on one CPU, without ``fork`` or
    ``sched_getaffinity``, or while another thread is alive (forking a
    threaded process is unsafe).  If anything fails between the first
    request and the last reply, every helper is killed and reaped before the
    error is raised or the missing values are computed here.
    """
    prec = mp.prec
    residues = coprime_residues(k)
    allowed: set[int] = set()
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[: len(residues)]
    if len(cpus) < 2:
        return dict(zip(residues, _hurwitz_share(r, k, residues, prec)))
    try:
        helpers = _start_helpers(len(cpus) - 1)
    except OSError:  # could not fork
        _stop_helpers()
        return dict(zip(residues, _hurwitz_share(r, k, residues, prec)))
    # Left to itself the scheduler runs a helper woken through its pipe on
    # the caller's CPU, where the two take turns: a split call then takes
    # as long as the serial loop or longer.  So this process keeps cpus[0]
    # for the call and each helper keeps a CPU of its own.
    for h, cpu in zip(helpers, cpus[1:]):
        if h.cpu != cpu:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(h.pid, {cpu})
                h.cpu = cpu
    values: list = [None] * len(residues)
    try:  # pinned inside the try, so that the finally unpins whatever is raised
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[0]})
        call = next(_calls)
        sharing = [h for h in helpers if h.owed < 2]
        for first, h in enumerate(sharing):
            _send(h.requests, (call, r, k, prec, first, len(sharing)))
            h.owed += 1
        for i in reversed(range(len(residues))):
            _collect(helpers, call, values)
            if values[i] is None:
                (values[i],) = _hurwitz_share(r, k, [residues[i]], prec)
        for h in sharing:
            _send(h.requests, None)
    except (EOFError, BrokenPipeError):  # a helper died
        _stop_helpers()
    except BaseException:
        _stop_helpers()
        raise
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, allowed)
    for i, value in enumerate(values):
        if value is None:
            (values[i],) = _hurwitz_share(r, k, [residues[i]], prec)
    return dict(zip(residues, values))


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

    The phi(k) evaluations are raced from both ends: up to (schedulable
    CPUs - 1) helper processes, forked on first use, each pinned to a CPU of
    its own and reaped at exit, walk interleaved shares from the front,
    while this process, pinned to another CPU for the call and its CPU set
    restored afterwards, walks every residue from the back and computes
    each value no helper has sent yet.  The values come back exact, so the
    result is bit for bit the serial one.  It stays serial on one CPU,
    without ``fork``, or while another thread is alive.
    """
    _check_int("mean_square_numeric", "k", k, 3)
    _check_int("mean_square_numeric", "r", r, 1)
    _check_int("mean_square_numeric", "precision_bits", precision_bits, 53)
    eps = -1 if r % 2 else 1
    with mp.workprec(precision_bits + 2 * _GUARD_BITS):
        z = _hurwitz_values(r, k)
        total = mp.fsum((z[a] + eps * z[k - a]) ** 2 for a in z if 2 * a < k)
        total = total * len(z) / (2 * mp.mpf(k) ** (2 * r))
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


def _power_exp_sum(n: int, m: int, k: int):
    """sum_{j<k} j^n e^(2*pi*i*m*j/k), term by term at the current precision."""
    return mp.fsum((j**n * _unit_root(m * j, k) for j in range(1, k)), absolute=False)


def exp_sum_direct(p: int, q: int, k: int, precision_bits: int = 128):
    """Triple-loop evaluation of the paired power-twisted exponential sum.

    sum over coprime m of (sum_{j<k} j^p e^(2*pi*i*m*j/k)) times
    (sum_{s<k} s^q e^(2*pi*i*m*s/k)).  Its real part is the direct side of
    the identity whose exact side is ``realjs_rhs_exact(p, q, k)``.
    """
    _check_int("exp_sum_direct", "p", p, 1)
    _check_int("exp_sum_direct", "q", q, 1)
    _check_int("exp_sum_direct", "k", k, 3)
    _check_int("exp_sum_direct", "precision_bits", precision_bits, 53)
    with mp.workprec(precision_bits + _GUARD_BITS):
        total = mp.mpc(0)
        for m in coprime_residues(k):
            total += _power_exp_sum(p, m, k) * _power_exp_sum(q, m, k)
    with mp.workprec(precision_bits):
        total = +total
    return total


def power_exp_identity_check(
    n: int, m: int, k: int, precision_bits: int = 128, tol: float | mp.mpf = 1e-10
) -> bool:
    """Check the finite expansion of sum_{j<k} j^n e^(2*pi*i*m*j/k).

    Left side: the sum evaluated directly.  Right side: the derivative
    coefficient expansion

        sum_{j=1}^{n} C(n,j) k^j sum_{alpha=1}^{n-j+1}
            A(n-j, alpha) / (e^(2*pi*i*m/k) - 1)^alpha.

    True iff they agree to ``tol`` relative at the given precision.  ``tol``
    is a finite non-negative int, float or mpf; an mpf may lie below the
    smallest float.
    """
    _check_int("power_exp_identity_check", "n", n, 1)
    _check_int("power_exp_identity_check", "m", m)
    _check_int("power_exp_identity_check", "k", k, 3)
    if math.gcd(m, k) != 1:
        raise ValueError(f"power_exp_identity_check: gcd(m, k) must be 1, got m={m}, k={k}")
    _check_int("power_exp_identity_check", "precision_bits", precision_bits, 53)
    if isinstance(tol, bool) or not isinstance(tol, (int, float, mp.mpf)) or not (mp.isfinite(tol) and tol >= 0):
        raise ValueError(f"power_exp_identity_check: tol must be a finite non-negative int, float or mpf, got {tol!r}")
    with mp.workprec(precision_bits + _GUARD_BITS):
        lhs = _power_exp_sum(n, m, k)
        w = _unit_root(m, k) - 1
        rhs = mp.mpc(0)
        for j in range(1, n + 1):
            inner = mp.fsum(
                (a * w**-alpha for alpha, a in enumerate(_deriv_row(n - j), 1)),
                absolute=False,
            )
            rhs += math.comb(n, j) * mp.mpf(k) ** j * inner
        scale = max(abs(lhs), abs(rhs), mp.mpf(1e-30))
        return bool(abs(lhs - rhs) / scale <= tol)
