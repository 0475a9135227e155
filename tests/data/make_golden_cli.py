"""Write (or check) tests/data/golden_cli.json from the meansq command.

The file pins the CLI's stdout byte for byte, with the exit code, for a
fixed list of invocations (``INVOCATIONS``):

* ``closed-form`` for r = 1 and r = 3..15 in all three formats;
* ``sin-sum --n 20`` evaluated at moduli on both sides of the
  factorization's prime table (k = 30, 99991, 720720, 1009^2, 999983);
* ``verify --r 1,3..8 --k 3..12``;
* one passing run of each ``identity-check`` suite, and ``sin-sum`` in the
  JSON and LaTeX formats and with its default order (no ``--n``);
* usage errors, whose stdout is empty and whose exit code is 2.

Stderr is not recorded: messages may be reworded, stdout and exit codes may
not.  Each invocation runs ``meansq.cli.main`` in this process.

Usage, from a checkout::

    PYTHONPATH=src python3 tests/data/make_golden_cli.py          # rewrite
    PYTHONPATH=src python3 tests/data/make_golden_cli.py --check  # compare only

``--check`` writes nothing and exits 1 on any difference, naming the
invocations that differ.  Rewriting the file is a deliberate act, done only
when a published output is meant to change; it is never the way to make a
failing test pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from meansq.cli import main as cli_main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli.json"

RANKS = (1, *range(3, 16))
FORMATS = ("text", "latex", "json")
SIN_MODULI = (30, 99991, 720720, 1009**2, 999983)
USAGE_ERRORS = (
    ("closed-form", "--r", "2"),
    ("closed-form", "--r", "0"),
    ("closed-form", "--bogus"),
    ("sin-sum", "--n", "3"),
    ("sin-sum", "--n", "4", "--k", "1"),
    ("verify", "--r", "3"),
    ("verify", "--r", "2..3", "--k", "3"),
    ("verify", "--r", "3", "--k", "1..4"),
    ("verify", "--r", "3", "--k", "5", "--prec", "0"),
    *(("verify", "--r", "3", "--k", "5", "--tol", tol) for tol in ("nan", "-1", "inf", "abc")),
    ("identity-check", "--which", "expsum", "--prec", "20"),
    ("identity-check", "--which", "realjs", "--p", "0"),
    ("identity-check", "--which", "sigma-cancel", "--h", "0"),
    ("identity-check", "--which", "expsum", "--n", "0"),
    ("identity-check", "--which", "realjs", "--tol", "abc"),
    ("identity-check", "--which", "realjs", "--prec", "20"),
    ("identity-check", "--which", "realjs", "--k", "1"),
    ("identity-check", "--which", "expsum", "--k", "2"),
    ("identity-check", "--which", "sigma0", "--h", "-1"),
)
INVOCATIONS = (
    *(("closed-form", "--r", str(r), "--format", fmt) for r in RANKS for fmt in FORMATS),
    *(("sin-sum", "--n", "20", "--k", str(k)) for k in SIN_MODULI),
    ("verify", "--r", "1,3..8", "--k", "3..12"),
    ("identity-check", "--which", "realjs", "--p", "2", "--q", "2", "--k", "3..5"),
    ("identity-check", "--which", "expsum", "--n", "2", "--k", "3..5"),
    ("identity-check", "--which", "sigma-cancel", "--h", "1..3"),
    ("identity-check", "--which", "sigma0", "--h", "0..2"),
    ("sin-sum", "--n", "6", "--k", "30", "--format", "json"),
    ("sin-sum", "--n", "6", "--format", "latex"),
    ("sin-sum",),
    ("sin-sum", "--format", "json"),
    *USAGE_ERRORS,
)


def run(argv: tuple[str, ...]) -> dict:
    """Exit code and stdout of one in-process run; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def build() -> dict:
    return {" ".join(argv): run(argv) for argv in INVOCATIONS}


def differences(want: dict, got: dict) -> list[str]:
    return [key for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file; write nothing")
    args = parser.parse_args(argv)
    data = build()
    if args.check:
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        diffs = differences(committed, data)
        for d in diffs:
            print(f"differs: {d}", file=sys.stderr)
        return 1 if diffs else 0
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
