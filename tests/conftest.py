"""Shared fixtures."""

from fractions import Fraction

import pytest

from meansq import sine_sums

CORRUPTED_ORDER = 10


@pytest.fixture
def corrupted_induction(monkeypatch):
    """Corrupt one collected scalar of the order-10 sine induction; returns 10.

    The k^2 weight of that induction step gets 1/7 added, and the sine-sum
    memo starts empty, so the next build of order 10 meets a k-power that
    cannot cancel.  Lower orders are left intact.
    """
    weights = sine_sums._induction_weights

    def corrupted(n):
        out = dict(weights(n))
        if n == CORRUPTED_ORDER:
            out[2] = out.get(2, 0) + Fraction(1, 7)
        return out

    monkeypatch.setattr(sine_sums, "_induction_weights", corrupted)
    monkeypatch.setattr(sine_sums, "_SIN_MEMO", {0: {1: Fraction(1)}})
    return CORRUPTED_ORDER
