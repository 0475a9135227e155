"""Regenerate perfbench/golden/golden.json from the meansq sources in src/.

Usage, from the root of the repository:

    python3 perfbench/make_golden.py

The golden data pins the package's outputs at the commit that wrote them:

* symbolic_cold: stdout of every ``closed-form`` / ``sin-sum`` command the
  symbolic-cold workload can draw, in full and tiny sizes;
* oracle_sweep: symbolic and numeric values of every (r, k) verify case;
* warm_queries: the JSON render of every closed form the warm session
  builds, the Jordan combination of every sine sum it reads, and a digest of
  a fixed list of queries per size.

Rerun it only on purpose, when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import meansq  # noqa: E402
import meansq.cli  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _cli_stdout(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "meansq.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def main() -> int:
    cold = {}
    for spec in (wl.FULL, wl.TINY):
        argvs = [["closed-form", "--r", str(r), "--format", "json"] for r in spec.cold_ranks]
        argvs += [["sin-sum", "--n", str(n), "--format", "json"] for n in spec.cold_sin_orders]
        for argv in argvs:
            cold[wl.cold_key(argv)] = _cli_stdout(argv)

    lo, hi = wl.FULL.oracle_k
    ranks = ",".join(str(r) for r in wl.FULL.oracle_ranks)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = meansq.cli.main(["verify", "--r", ranks, "--k", f"{lo}..{hi}"])
    if rc != 0:
        raise SystemExit("verify failed; refusing to write golden data")
    oracle = {
        wl.oracle_key(case["r"], case["k"]): {"symbolic_value": case["symbolic_value"], "numeric_value": case["numeric_value"]}
        for case in json.loads(buf.getvalue())["cases"]
    }

    renders = {str(r): [meansq.render(f, "json") for f in worker._forms(r)] for r in wl.FULL.warm_ranks}
    combos = {str(n): json.loads(meansq.render(meansq.sin_sum_exact(n), "json")) for n in range(0, wl.FULL.warm_n_max + 1, 2)}
    digests = {
        mode: wl.digest([worker.warm_op(*op) for op in wl.digest_ops(spec, mode)])
        for mode, spec in (("full", wl.FULL), ("tiny", wl.TINY))
    }
    golden = {
        "symbolic_cold": cold,
        "oracle_sweep": oracle,
        "warm_queries": {"renders": renders, "combos": combos, "digest": digests},
    }
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    with open(wl.GOLDEN_DIR / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
