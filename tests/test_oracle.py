"""Tests for the character enumeration and numeric L-value oracle."""

import contextlib
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from mpmath import mp

from meansq import oracle
from meansq.mean_square import mean_square_even, mean_square_odd
from meansq.multiplicative import coprime_residues, euler_phi
from meansq.oracle import (
    DirichletCharacter,
    character_group,
    characters_with_parity,
    exp_sum_direct,
    l_value_numeric,
    mean_square_numeric,
    power_exp_identity_check,
)
from meansq.symbolic import evaluate_closed_form


def closed_form_value(r, k, precision_bits):
    forms = mean_square_odd(r) if r % 2 else mean_square_even(r)
    forms = forms if isinstance(forms, tuple) else (forms,)
    with mp.workprec(precision_bits):
        return mp.fsum(evaluate_closed_form(f, k, precision_bits) for f in forms)


def all_characters(k):
    group = character_group(k)
    return [
        DirichletCharacter(group, vec)
        for vec in itertools.product(*(range(o) for o in group.orders))
    ]


class TestCharacterGroup:
    def test_k5_single_factor_order4(self):
        g = character_group(5)
        assert g.orders == (4,)
        assert len(g.dlog) == 4

    def test_k8_two_order2_factors(self):
        g = character_group(8)
        assert sorted(g.orders) == [2, 2]

    def test_k3(self):
        assert character_group(3).orders == (2,)

    def test_trivial_moduli(self):
        assert character_group(1).orders == ()
        assert character_group(2).orders == ()

    def test_order_product_is_phi(self):
        for k in range(1, 80):
            g = character_group(k)
            assert math.prod(g.orders) == euler_phi(k)
            assert len(g.dlog) == euler_phi(k)

    def test_generators_reproduce_dlog(self):
        for k in (5, 8, 12, 16, 21, 24, 35, 40):
            g = character_group(k)
            for m, vec in g.dlog.items():
                prod = 1
                for (gen, _), e in zip(g.factors, vec):
                    prod = prod * pow(gen, e, k) % k
                assert prod == m


class TestCharacters:
    def test_parity_counts(self):
        for k in range(3, 13):
            odd = characters_with_parity(k, "odd")
            even = characters_with_parity(k, "even")
            assert len(odd) == len(even) == euler_phi(k) / 2, k
            assert all(c.is_odd for c in odd)
            assert not any(c.is_odd for c in even)

    def test_small_moduli_rejected(self):
        for k in (1, 2):
            with pytest.raises(ValueError):
                characters_with_parity(k, "odd")
        with pytest.raises(ValueError):
            characters_with_parity(5, "both")

    def test_examples(self):
        assert len(characters_with_parity(4, "odd")) == 1
        assert len(characters_with_parity(5, "even")) == 2
        assert len(characters_with_parity(3, "odd")) == 1

    def test_multiplicative_by_sampling(self):
        rng = random.Random(1203)
        for k in (5, 8, 9, 12, 15):
            for chi in all_characters(k):
                for _ in range(20):
                    m = rng.randrange(1, 3 * k)
                    n = rng.randrange(1, 3 * k)
                    tm, tn, tmn = (
                        chi.unit_exponent(m),
                        chi.unit_exponent(n),
                        chi.unit_exponent(m * n),
                    )
                    if math.gcd(m, k) > 1 or math.gcd(n, k) > 1:
                        assert tmn is None or None in (tm, tn)
                    else:
                        assert tmn == (tm + tn) % 1

    def test_vanishes_off_coprimes(self):
        chi = characters_with_parity(12, "odd")[0]
        for m in range(1, 13):
            theta = chi.unit_exponent(m)
            assert (theta is None) == (math.gcd(m, 12) > 1)

    def test_orthogonality_of_odd_characters(self):
        # sum over odd chi of chi(m) conj(chi(n)) is phi/2, -phi/2 or 0
        # according to n = m, n = k - m, or neither (mod k).
        with mp.workprec(128):
            for k in range(3, 13):
                odd = characters_with_parity(k, "odd")
                half_phi = int(euler_phi(k)) / mp.mpf(2)
                for m in coprime_residues(k):
                    for n in coprime_residues(k):
                        total = mp.fsum(
                            (chi.value(m) * mp.conj(chi.value(n)) for chi in odd),
                            absolute=False,
                        )
                        if n == m % k:
                            expected = half_phi
                        elif n == (k - m) % k:
                            expected = -half_phi
                        else:
                            expected = mp.mpf(0)
                        assert abs(total - expected) < mp.mpf(2) ** -100, (k, m, n)

    def test_gauss_sum_at_zero_vanishes(self):
        # sum_{j=1}^{k} sum_m chi(m) e(mj/k) = 0 for every character
        with mp.workprec(128):
            for k in range(3, 13):
                for chi in all_characters(k):
                    total = mp.fsum(
                        (
                            chi.value(m) * mp.expjpi(2 * mp.mpf(m * j) / k)
                            for j in range(1, k + 1)
                            for m in range(1, k)
                        ),
                        absolute=False,
                    )
                    assert abs(total) < mp.mpf(2) ** -96, k


class TestLValues:
    def test_principal_mod4_at_2(self):
        chi0 = next(c for c in characters_with_parity(4, "even") if c.is_principal)
        value = l_value_numeric(2, chi0, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**2 / 8) < mp.mpf(2) ** -110
            assert abs(value.imag) < mp.mpf(2) ** -110

    def test_beta_function_at_3(self):
        chi = characters_with_parity(4, "odd")[0]
        value = l_value_numeric(3, chi, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi**3 / 32) < mp.mpf(2) ** -110

    def test_r1_odd_character_mod4(self):
        chi = characters_with_parity(4, "odd")[0]
        value = l_value_numeric(1, chi, 128)
        with mp.workprec(128):
            assert abs(value - mp.pi / 4) < mp.mpf(2) ** -110

    def test_r1_guards(self):
        chi0 = next(c for c in characters_with_parity(4, "even") if c.is_principal)
        with pytest.raises(ValueError):
            l_value_numeric(1, chi0, 128)
        with pytest.raises(ValueError):
            l_value_numeric(0, chi0, 128)
        with pytest.raises(ValueError):
            l_value_numeric(2, chi0, 32)

    def test_two_precision_agreement(self):
        for k in (5, 7, 12):
            for chi in characters_with_parity(k, "even")[:2]:
                lo = l_value_numeric(3, chi, 128)
                hi = l_value_numeric(3, chi, 192)
                with mp.workprec(192):
                    assert abs(lo - hi) / abs(hi) < mp.mpf(2) ** -120, k


class TestMeanSquareNumeric:
    def test_enumeration_order_irrelevant(self):
        for r, k in ((3, 12), (4, 9)):
            reference = mean_square_numeric(r, k, 128)
            chars = characters_with_parity(k, "odd" if r % 2 else "even")
            with mp.workprec(160):
                forward = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in chars)
                backward = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in reversed(chars))
                assert abs(forward - backward) / forward < mp.mpf(2) ** -150
                assert abs(reference - forward) / forward < mp.mpf(2) ** -120

    def test_k_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(3, 2, 128)

    def test_r_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(0, 5, 128)

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            mean_square_numeric(3, 5, 52)

    @pytest.mark.parametrize(
        "k,ranks",
        [
            (8, (1, 3, 4, 5)),
            (9, (1, 3, 4, 5)),
            (16, (1, 3, 4, 5)),
            (25, (1, 3)),
            (27, (1, 4)),
            (30, (1, 3, 4, 5)),
        ],
    )
    def test_three_routes_agree(self, k, ranks):
        # residue sum, per-character sum of |L|^2 and the closed form, over
        # 2^a, odd prime powers and a composite; the per-character route
        # costs phi(k)^2/2 zeta calls, so 25 and 27 take fewer ranks
        tol = mp.mpf(2) ** -120
        for r in ranks:
            chars = characters_with_parity(k, "odd" if r % 2 else "even")
            residue = mean_square_numeric(r, k, 160)
            symbolic = closed_form_value(r, k, 160)
            with mp.workprec(160):
                per_character = mp.fsum(abs(l_value_numeric(r, c, 160)) ** 2 for c in chars)
                for other in (per_character, symbolic):
                    assert abs(residue - other) / other < tol, (r, k)

    @pytest.mark.parametrize(
        "k,ranks",
        [
            (64, (1, 3, 9)),
            (128, (1, 4, 8)),
            (81, (1, 5, 7)),
            (125, (1, 6, 9)),
            (49, (1, 3, 7)),
            (120, (1, 4, 6)),
            (210, (1, 5, 8)),
            (360, (1, 3, 9)),
        ],
    )
    def test_closed_form_sweep_large_moduli(self, k, ranks):
        for r in ranks:
            numeric = mean_square_numeric(r, k, 128)
            symbolic = closed_form_value(r, k, 128)
            with mp.workprec(128):
                assert abs(numeric - symbolic) / symbolic < mp.mpf(2) ** -120, (r, k)

    @pytest.mark.parametrize(
        "k,ranks", [(64, range(10, 16)), (210, range(10, 16)), (2310, (15,))], ids=["k64", "k210", "k2310"]
    )
    def test_closed_form_sweep_high_ranks(self, k, ranks):
        for r in ranks:
            numeric = mean_square_numeric(r, k, 160)
            symbolic = closed_form_value(r, k, 160)
            with mp.workprec(160):
                assert abs(numeric - symbolic) / symbolic < mp.mpf(2) ** -120, (r, k)

    @pytest.mark.parametrize("r", [20, 21])
    def test_closed_form_beyond_golden_ranks(self, r):
        # the golden file stops at r = 15
        for k in (7, 30):
            numeric = mean_square_numeric(r, k, 160)
            symbolic = closed_form_value(r, k, 160)
            with mp.workprec(160):
                assert abs(numeric - symbolic) / symbolic < mp.mpf(2) ** -120, (r, k)


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs the oracle may schedule on; no helper outlives the test."""
    oracle._stop_helpers()
    allowed = os.sched_getaffinity(0)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield use
    oracle._stop_helpers()
    os.sched_setaffinity(0, allowed)  # a split call restores the CPUs it was told of


@contextlib.contextmanager
def deadline(seconds):
    def hung(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def serial_value(cpus, r, k):
    cpus(1)
    return mean_square_numeric(r, k)._mpf_


class TestHelperProcesses:
    def test_split_is_bit_identical(self, cpus):
        # three helpers even on a runner with fewer CPUs; the first case,
        # (3, 3), has two residues, the fewest that split
        cases = [(r, k) for r in (3, 1, 4, 7) for k in (*range(3, 17), 30, 60, 61)]
        # L-values take their Hurwitz values from the same race: both parities, r = 1 only for odd chi
        l_cases = [
            (r, chi)
            for k in (3, 5, 12, 13, 30)
            for parity, rs in (("odd", (1, 3)), ("even", (2, 4)))
            for chi in characters_with_parity(k, parity)
            for r in rs
        ]
        cpus(4)
        split = [mean_square_numeric(*cases[0])._mpf_]
        assert len(oracle._helpers) == 1
        split += [mean_square_numeric(r, k)._mpf_ for r, k in cases[1:]]
        assert len(oracle._helpers) == 3
        split += [l_value_numeric(r, chi)._mpc_ for r, chi in l_cases]
        cpus(1)
        serial = [mean_square_numeric(r, k)._mpf_ for r, k in cases]
        assert serial + [l_value_numeric(r, chi)._mpc_ for r, chi in l_cases] == split

    def test_caller_and_helper_keep_separate_cpus(self, cpus, monkeypatch):
        allowed = os.sched_getaffinity(0)
        seen = []
        share = oracle._hurwitz_share

        def watch(*args):
            seen.append(frozenset(os.sched_getaffinity(0)))
            return share(*args)

        monkeypatch.setattr(oracle, "_hurwitz_share", watch)
        mean_square_numeric(3, 30)
        assert os.sched_getaffinity(0) == allowed
        if len(allowed) > 1:
            first, second = sorted(allowed)[:2]
            assert set(seen) == {frozenset({first})}
            assert os.sched_getaffinity(oracle._helpers[0].pid) == {second}

        def fail(*args):
            raise RuntimeError("own share")

        monkeypatch.setattr(oracle, "_hurwitz_share", fail)
        with pytest.raises(RuntimeError, match="own share"):
            mean_square_numeric(3, 30)
        assert os.sched_getaffinity(0) == allowed

    def test_error_after_the_pin_restores_the_cpus(self, cpus, monkeypatch):
        # the real CPU set: on two or more CPUs the call pins this process to one
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("a call on one CPU stays serial and never pins")

        def interrupted():
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(oracle, "_calls", interrupted())
        with pytest.raises(KeyboardInterrupt):
            mean_square_numeric(3, 30)
        assert os.sched_getaffinity(0) == allowed

    def test_exit_hook_reaps_every_helper(self, cpus):
        cpus(4)
        mean_square_numeric(3, 30)
        pids = [helper.pid for helper in oracle._helpers]
        assert len(pids) == 3
        oracle._stop_helpers()
        assert oracle._helpers == []
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, 0)

    def test_error_in_own_share_leaves_no_stale_reply(self, cpus, monkeypatch):
        want = serial_value(cpus, 4, 31)
        cpus(2)
        mean_square_numeric(3, 30)  # the helper is forked with the real share function

        def fail(*args):
            raise RuntimeError("own share")

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_hurwitz_share", fail)
            with pytest.raises(RuntimeError, match="own share"):
                mean_square_numeric(3, 30)
        with deadline(60):
            assert mean_square_numeric(4, 31)._mpf_ == want

    def test_killed_helper_is_replaced(self, cpus):
        want = serial_value(cpus, 5, 31)
        cpus(3)
        mean_square_numeric(3, 30)
        os.kill(oracle._helpers[0].pid, signal.SIGKILL)
        with deadline(60):
            assert mean_square_numeric(5, 31)._mpf_ == want
            assert mean_square_numeric(5, 31)._mpf_ == want

    def test_stopped_helper_delays_no_call(self, cpus):
        # a helper that never answers delays no call, gets no share once two
        # calls are unclosed, and the answers it sends once resumed are
        # dropped, not misread
        want = {(r, k): serial_value(cpus, r, k) for r, k in ((1, 6007), (3, 31), (4, 30), (5, 31))}
        cpus(2)
        mean_square_numeric(3, 30)
        (helper,) = oracle._helpers
        os.kill(helper.pid, signal.SIGSTOP)
        try:
            with deadline(60):
                # a share of 6006 values, far more than a pipe holds if listed
                assert mean_square_numeric(1, 6007)._mpf_ == want[1, 6007]
                for _ in range(4):
                    assert mean_square_numeric(3, 31)._mpf_ == want[3, 31]
            assert helper.owed == 2
        finally:
            os.kill(helper.pid, signal.SIGCONT)
        with deadline(60):
            assert mean_square_numeric(4, 30)._mpf_ == want[4, 30]
            assert mean_square_numeric(5, 31)._mpf_ == want[5, 31]
        assert oracle._helpers == [helper]

    def test_slow_helper_changes_no_value(self, cpus, monkeypatch):
        # the helper takes about 50 ms per value, far longer than the caller:
        # the caller computes what has not come and drops what comes late
        cases = ((3, 30), (4, 31), (1, 61), (5, 31))
        want = {case: serial_value(cpus, *case) for case in cases}
        cpus(2)
        caller = os.getpid()
        share = oracle._hurwitz_share

        def slow(r, k, residues, prec):
            if os.getpid() != caller:
                time.sleep(0.05 * len(residues))
            return share(r, k, residues, prec)

        monkeypatch.setattr(oracle, "_hurwitz_share", slow)
        with deadline(60):
            for case in cases * 2:
                assert mean_square_numeric(*case)._mpf_ == want[case]
        assert len(oracle._helpers) == 1

    def test_failed_fork_falls_back_in_process(self, cpus, monkeypatch):
        want = serial_value(cpus, 3, 30)
        cpus(3)

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        assert mean_square_numeric(3, 30)._mpf_ == want
        assert oracle._helpers == []
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_no_helper_while_another_thread_runs(self, cpus):
        want = serial_value(cpus, 3, 30)
        cpus(4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert mean_square_numeric(3, 30)._mpf_ == want
            assert oracle._helpers == []
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_cli_process_leaves_no_helper(self):
        # piped stdout and stderr, three helpers whatever the runner's CPU
        # count; the CLI leads a new process group, so a helper that outlived
        # it would still be found in that group
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2, 3}; "
            "from meansq.cli import main; sys.exit(main(['verify', '--r', '3', '--k', '30']))"
        )
        with subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (0, b"")
        assert b'"failed": 0' in out
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestExponentialSums:
    def test_factor_swap_symmetry(self):
        a = exp_sum_direct(2, 3, 5)
        b = exp_sum_direct(3, 2, 5)
        with mp.workprec(128):
            assert abs(a - b) < mp.mpf(2) ** -100

    @pytest.mark.parametrize("n,m,k", [(1, 1, 3), (4, 3, 7), (2, 1, 4)])
    def test_power_identity_examples(self, n, m, k):
        assert power_exp_identity_check(n, m, k)

    def test_power_identity_gcd_guard(self):
        with pytest.raises(ValueError):
            power_exp_identity_check(2, 2, 4)
