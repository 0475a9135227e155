"""Fast self-test of the benchmark at tiny sizes (about half a minute).

Usage, from the root of the repository:

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, exits 0 and prints every metric that
  BENCHMARK.json names, with its unit, in the report and in the last-line
  JSON, and reports error_ratio;
* a deliberately corrupted golden file makes every workload report
  failures, error_ratio > 0 and a nonzero exit;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("symbolic-cold", "oracle-sweep", "warm-queries")


def _run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _tiny(workload: str, trace: int, *extra: str) -> tuple[int, list[str]]:
    return _run(["--tiny", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra])


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def _error_ratio(lines: list[str]) -> float:
    (line,) = [x for x in lines if x.split()[:1] == ["error_ratio"]]
    value, unit = line.split()[1:3]
    assert unit == "ratio", line
    return float(value)


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            rc, lines = _tiny(workload, trace)
            assert rc == 0, (workload, trace, lines[-12:])
            result = _result(lines)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                assert any(x.split()[:1] == [name] and x.split()[2] == wanted[name] for x in lines), name
            assert _error_ratio(lines) == 0.0
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics with units, {result['attempted']} checked")


def check_corrupted_golden() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR))
    try:
        golden = json.loads((HERE / "golden" / "golden.json").read_text(encoding="utf-8"))
        golden["symbolic_cold"]["closed-form --r 3 --format json"] += " "
        for key in ("3,5", "1,5", "3,7", "1,7"):
            golden["oracle_sweep"][key]["symbolic_value"] += "1"
        golden["warm_queries"]["renders"]["3"][0] += " "
        golden["warm_queries"]["digest"]["tiny"] = "0" * 64
        (tmp / "golden.json").write_text(json.dumps(golden), encoding="utf-8")
        for workload in WORKLOADS:
            rc, lines = _tiny(workload, 0, "--golden", str(tmp))
            result = _result(lines)
            assert rc != 0 and not result["correct"] and result["failed"] > 0, (workload, rc, result)
            assert _error_ratio(lines) > 0
            print(f"ok   {workload} with a corrupted golden: exit {rc}, {result['failed']} failed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        rc, lines = _run(["--workload", "warm-queries", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert rc != 0 and not lines, (rc, lines)
        print(f"ok   without the package sources: exit {rc}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    check_metrics(spec)
    check_corrupted_golden()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
