"""Shared fixtures."""

import pytest

from meansq import sine_sums

CORRUPTED_ORDER = 10


@pytest.fixture
def corrupted_induction(monkeypatch):
    """Corrupt one collected cell of the order-10 sine induction; yields 10.

    The table the induction expands gets 1 added at (k^2, R(1)), and the
    sine-sum cache starts empty, so the next build of order 10 meets a
    k-power that cannot cancel.  Lower orders are left intact.  The cache is
    cleared again afterwards, so no order built under the corruption
    outlives the test.  Only the induction's name is patched; the power sums
    and the sigma blocks keep theirs.
    """
    cells = sine_sums._weighted_cells

    def corrupted(r, weights, shift=0, scale=1):
        out = cells(r, weights, shift, scale)
        if r == CORRUPTED_ORDER:
            out[2, 1] = out.get((2, 1), 0) + 1
        return out

    monkeypatch.setattr(sine_sums, "_weighted_cells", corrupted)
    sine_sums._sin.cache_clear()
    yield CORRUPTED_ORDER
    sine_sums._sin.cache_clear()
