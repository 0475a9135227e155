"""Shared fixtures."""

import pytest

from meansq import sine_sums

CORRUPTED_ORDER = 10


@pytest.fixture
def corrupted_induction(monkeypatch):
    """Corrupt one collected scalar of the order-10 sine induction; yields 10.

    The induction shifts the Bernoulli weight of k^e to k^(e-1), so the
    weight of k^3 in the rank-10 sum, the one that lands on k^2, gets 1/7
    added, and the sine-sum cache starts empty, so the next build of order
    10 meets a k-power that cannot cancel.  Lower orders are left intact.
    The cache is cleared again afterwards, so no order built under the
    corruption outlives the test.  The weights are integer numerators over
    one denominator, so 1/7 is added as den/7 (den carries B_6's 7).
    Only the induction's name is patched; the sigma blocks keep theirs.
    """
    weights = sine_sums._bernoulli_weights

    def corrupted(r, q_max, reflected=False):
        nums, den = weights(r, q_max, reflected)
        out = dict(nums)
        if r == CORRUPTED_ORDER:
            assert den % 7 == 0
            out[3] = out.get(3, 0) + den // 7
        return out, den

    monkeypatch.setattr(sine_sums, "_bernoulli_weights", corrupted)
    sine_sums._sin.cache_clear()
    yield CORRUPTED_ORDER
    sine_sums._sin.cache_clear()
