"""Byte-for-byte gate on the symbolic outputs against tests/data/golden_symbolic.json.

The committed file was written by ``tests/data/make_golden_symbolic.py``;
this test recomputes every entry with the same functions and compares the
renders as strings.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden_symbolic", _DATA / "make_golden_symbolic.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

COMMITTED = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_committed_file_covers_every_entry():
    assert sorted(COMMITTED["closed_forms"], key=int) == [str(r) for r in golden.RANKS]
    assert sorted(COMMITTED["sin_sums"], key=int) == [str(n) for n in golden.SIN_ORDERS]
    assert sorted(COMMITTED["sigma"]) == sorted(golden.SIGMA_BLOCKS)


@pytest.mark.parametrize("r", golden.RANKS)
def test_closed_form_render(r):
    assert golden.closed_form_renders(r) == COMMITTED["closed_forms"][str(r)]


def test_sin_sum_renders():
    for n in golden.SIN_ORDERS:
        assert golden.sin_sum_render(n) == COMMITTED["sin_sums"][str(n)], f"n={n}"


@pytest.mark.parametrize("name", sorted(golden.SIGMA_BLOCKS))
def test_sigma_blocks(name):
    committed = COMMITTED["sigma"][name]
    lo = golden.SIGMA_BLOCKS[name][1]
    assert sorted(committed, key=int) == [str(h) for h in range(lo, golden.SIGMA_H_MAX + 1)]
    for h, want in committed.items():
        assert golden.sigma_render(name, int(h)) == want, f"{name}({h})"
