"""Write (or check) tests/data/golden_symbolic.json from the meansq package.

The file pins the exact symbolic outputs byte for byte:

* ``closed_forms`` -- the JSON render of every closed form for r = 1 and
  r = 3..41 (r = 1 gives the main form and its correction);
* ``sin_sums``     -- the JSON render of ``sin_sum_exact(n)`` for every even
  n <= 80;
* ``sigma``        -- the six sigma blocks for every h <= 20 in their domain,
  each as a JSON object ``{k-exponent: {Jordan index: "p/q"}}``.

Usage, from a checkout::

    PYTHONPATH=src python3 tests/data/make_golden_symbolic.py          # rewrite
    PYTHONPATH=src python3 tests/data/make_golden_symbolic.py --check  # compare only

``--check`` writes nothing and exits 1 on any difference, naming the
entries that differ.  Rewriting the file is a deliberate act, done only when
a published output is meant to change and the new values have been checked
independently; it is never the way to make a failing test pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from meansq import (
    mean_square_even,
    mean_square_odd,
    render,
    sigma0,
    sigma0_prime,
    sigma1,
    sigma1_prime,
    sigma2,
    sigma2_prime,
    sin_sum_exact,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_symbolic.json"

RANKS = (1, *range(3, 42))
SIN_ORDERS = tuple(range(0, 81, 2))
SIGMA_H_MAX = 20
# Block name -> (builder, smallest h it accepts).
SIGMA_BLOCKS = {
    "sigma0": (sigma0, 0),
    "sigma1": (sigma1, 1),
    "sigma2": (sigma2, 1),
    "sigma0_prime": (sigma0_prime, 2),
    "sigma1_prime": (sigma1_prime, 2),
    "sigma2_prime": (sigma2_prime, 2),
}


def closed_form_renders(r: int) -> list[str]:
    forms = mean_square_odd(r) if r % 2 else mean_square_even(r)
    forms = forms if isinstance(forms, tuple) else (forms,)
    return [render(f, "json") for f in forms]


def sin_sum_render(n: int) -> str:
    return render(sin_sum_exact(n), "json")


def sigma_render(name: str, h: int) -> str:
    block = SIGMA_BLOCKS[name][0](h)
    return json.dumps({str(e): json.loads(render(block[e], "json")) for e in sorted(block, reverse=True)})


def build() -> dict:
    return {
        "closed_forms": {str(r): closed_form_renders(r) for r in RANKS},
        "sin_sums": {str(n): sin_sum_render(n) for n in SIN_ORDERS},
        "sigma": {
            name: {str(h): sigma_render(name, h) for h in range(lo, SIGMA_H_MAX + 1)}
            for name, (_, lo) in SIGMA_BLOCKS.items()
        },
    }


def _differences(want: dict, got: dict) -> list[str]:
    out = []
    for section in sorted(set(want) | set(got)):
        a, b = want.get(section, {}), got.get(section, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                out.append(f"{section}[{key}]")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file; write nothing")
    args = parser.parse_args(argv)
    data = build()
    if args.check:
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        diffs = _differences(committed, data)
        for d in diffs:
            print(f"differs: {d}", file=sys.stderr)
        return 1 if diffs else 0
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
