"""Ungated scaling report: the baseline sizes of ROADMAP.md, each cold in its own process.

Run it through the benchmark command:

    python3 perfbench/run.py --scaling

Each line gives the time of the one library call (tables built from
nothing, import excluded) and the wall time of its whole process, both
unscaled; the header gives the machine-speed probe (see probe.py).  No bound
applies; the report shows how a change scales in n, r and k.  The largest
baseline oracle size, k = 401, is left out: it takes minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import PROBE_REF_S, probe

CASES = (
    [("sin_sum_exact", n) for n in (20, 40, 60)]
    + [("mean_square_odd", r) for r in (11, 13, 15)]
    + [("mean_square_even", r) for r in (10, 12, 14)]
    + [("mean_square_numeric", k) for k in (30, 67, 101)]
)


def _call(name: str, size: int) -> float:
    import meansq

    fn = getattr(meansq, name)
    t0 = perf_counter()
    if name == "mean_square_numeric":
        fn(5, size, 128)
    else:
        fn(size)
    return perf_counter() - t0


def report(root: Path, env: dict) -> int:
    print(f"  unscaled times; machine probe now {probe() * 1000:.3f} ms (reference {PROBE_REF_S * 1000:.2f} ms)")
    rows = []
    for name, size in CASES:
        label = f"{name}(5, k={size})" if name == "mean_square_numeric" else f"{name}({size})"
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), name, str(size)],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            print(f"  {label:32s} FAILED (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        call_s = json.loads(proc.stdout)["call_s"]
        rows.append({"call": label, "call_s": call_s, "process_s": wall})
        print(f"  {label:32s} call {call_s:9.3f} s   process {wall:9.3f} s", flush=True)
    print(json.dumps({"scaling": rows}))
    return 0


if __name__ == "__main__":
    print(json.dumps({"call_s": _call(sys.argv[1], int(sys.argv[2]))}))
