"""Shared fixtures."""

import pytest

from meansq import sine_sums

CORRUPTED_ORDER = 10


@pytest.fixture
def corrupted_induction(monkeypatch):
    """Corrupt one collected scalar of the order-10 sine induction; yields 10.

    The k^2 weight of that induction step gets 1/7 added, and the sine-sum
    cache starts empty, so the next build of order 10 meets a k-power that
    cannot cancel.  Lower orders are left intact.  The cache is cleared
    again afterwards, so no order built under the corruption outlives the
    test.  The weights are integer numerators over one denominator, so 1/7
    is added as den/7 (den carries 10!, so 7 divides it).
    """
    weights = sine_sums._induction_weights

    def corrupted(n):
        nums, den = weights(n)
        out = dict(nums)
        if n == CORRUPTED_ORDER:
            assert den % 7 == 0
            out[2] = out.get(2, 0) + den // 7
        return out, den

    monkeypatch.setattr(sine_sums, "_induction_weights", corrupted)
    sine_sums._sin.cache_clear()
    yield CORRUPTED_ORDER
    sine_sums._sin.cache_clear()
