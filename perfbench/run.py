"""meansq benchmark: one workload, one seed, every metric with its unit.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling

Workloads (see perfbench/WORKLOADS.md for the full table):

* ``oracle-sweep``   one process calls ``meansq.cli.main(["verify", ...])``
                     once per (r, k);
* ``warm-queries``   one long-lived library session reading built tables;
* ``symbolic-cold``  every op is a fresh ``python3 -m meansq.cli`` process
                     building a closed form or a sine sum from nothing.
                     Not listed in BENCHMARK.json: its few, long ops leave
                     the latency deciles too noisy on shared hosts to bound.

Load is a closed loop with one client: one op at a time, no threads, no
parallel children.  The timed phase runs whole rounds (a fixed amount of
work, inputs drawn from the seed) until ``--seconds`` have passed, so it
overruns by less than one round.  Every output is checked; each failed op or check counts in
``failed``, and any failure makes the command exit 1.

Times are reported in seconds at a fixed reference machine speed: each
stretch of measured work is scaled by a probe loop timed next to it (see
probe.py), because the shared hosts drift in speed by large factors.  The
unscaled figures are printed in the report and kept, with every sample, in
perfbench/out/<workload>-seed<N>.samples.json.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics; its spans are
written to perfbench/out/.  ``--scaling`` reruns the baseline sizes cold,
one process each, and prints their times (no bounds).

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads as wl
from probe import PROBE_REF_S, Scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
OP_TIMEOUT_S = 170
MAX_TRACED_ROUNDS = 6

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "count" for name in (
        "exact.deriv_coeff.calls", "exact.bernoulli.calls", "sine_sums.sin_sum_exact.calls",
        "mean_square.sigma.calls", "symbolic.jc_add.calls", "symbolic.jc_scale.calls",
        "symbolic.closed_form.calls", "multiplicative.factorize.calls",
        "multiplicative.jordan_totient.calls", "oracle.characters.count", "oracle.l_value.calls",
        "oracle.hurwitz_evals", "setup.mean_square.sigma.calls", "setup.exact.deriv_coeff.calls",
        "setup.exact.bernoulli.calls", "setup.sine_sums.sin_sum_exact.calls",
        "setup.symbolic.jc_add.calls", "setup.symbolic.jc_scale.calls",
    )},
    **{name: "s" for name in (
        "exact.self_s", "sine_sums.self_s", "mean_square.self_s", "symbolic.evaluate.self_s",
        "symbolic.render.self_s", "symbolic.self_s", "multiplicative.self_s",
        "oracle.character_group.self_s", "oracle.self_s", "cli.self_s", "cli.import_s",
        "trace.overhead_s", "setup.mean_square.self_s", "setup.sine_sums.self_s", "setup.exact.self_s",
    )},
}


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    spec: wl.Spec
    mode: str
    golden: dict
    env: dict
    rng: random.Random
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    # Untraced samples, each as (raw seconds, seconds at the reference speed).
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    rounds: list[tuple[float, float]] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def record(self, labels: list[str], raw: list[float], scaled: list[float], probes: list[float], traced: bool) -> float:
        """Keep one round's samples; returns its wall time at the reference speed."""
        self.probes += probes
        if not traced:
            self.ops += zip(labels, raw, scaled)
            self.rounds.append((sum(raw), sum(scaled)))
        return sum(scaled)

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.notes.append(f"FAILED: {what}")


def _quantiles(latencies_s: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles([x * 1000 for x in latencies_s], n=10)
    return deciles[4], deciles[8]


def _setup(run: Run, start) -> object:
    """Time ``start()`` (which returns once set-up is done) between two probes."""
    scaler = Scaler()
    t0 = perf_counter()
    handle = start()
    scaler.add(perf_counter() - t0)
    scaler.flush()
    run.setups.append((scaler.raw[0], scaler.scaled[0]))
    run.probes += scaler.probes
    return handle


def timed_rounds(run: Run, play) -> tuple[list[float], list[float]]:
    """Whole rounds until ``run.seconds`` real seconds have passed; returns (untraced, traced) walls.

    ``play(traced)`` returns a round's wall time at the reference speed.
    Untraced runs play untraced rounds only.  Traced runs alternate an
    untraced and a traced round, so the tracing overhead is measured on
    rounds of the same kind, and stop after MAX_TRACED_ROUNDS traced ones.
    """
    untraced: list[float] = []
    traced: list[float] = []
    start = perf_counter()
    while perf_counter() - start < run.seconds and len(traced) < MAX_TRACED_ROUNDS:
        untraced.append(play(False))
        if run.trace:
            traced.append(play(True))
    return untraced, traced


# ---------------------------------------------------------------------------
# symbolic-cold: one fresh CLI process per op
# ---------------------------------------------------------------------------

def _spawn_cli(run: Run, argv: list[str], trace_path: Path | None) -> tuple[float, int, str]:
    if trace_path is None:
        cmd = [sys.executable, "-m", "meansq.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=run.env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, -1, ""
    return perf_counter() - t0, proc.returncode, proc.stdout


def symbolic_cold(run: Run) -> dict:
    if not run.trace:
        for _ in range(run.spec.setups[run.workload]):
            _setup(run, lambda: subprocess.run(
                [sys.executable, "-c", "import meansq.cli"], cwd=ROOT, env=run.env, check=True, timeout=OP_TIMEOUT_S
            ))
    trace_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=OUT_DIR)) if run.trace else None
    trace_files: list[Path] = []

    def play(traced: bool) -> float:
        ops = wl.cold_round(run.spec, run.rng)
        scaler = Scaler()
        for argv in ops:
            path = trace_dir / f"{len(trace_files)}.json" if traced else None
            seconds, rc, stdout = _spawn_cli(run, argv, path)
            scaler.add(seconds)
            if traced:
                trace_files.append(path)
            want = run.golden["symbolic_cold"].get(wl.cold_key(argv))
            run.tally(rc == 0 and stdout == want, f"meansq {wl.cold_key(argv)} (exit {rc})")
        scaler.flush()
        return run.record([wl.cold_key(a) for a in ops], scaler.raw, scaler.scaled, scaler.probes, traced)

    try:
        untraced, traced = timed_rounds(run, play)
        if run.trace:
            traces = [json.loads(p.read_text(encoding="utf-8")) for p in trace_files]
            _write_trace(run, traces)
            return tr.summarize(traces, len(traced), traced, untraced)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    return _end_to_end(run)


# ---------------------------------------------------------------------------
# oracle-sweep and warm-queries: one long-lived worker process
# ---------------------------------------------------------------------------

class Worker:
    """A worker.py child; the constructor returns once the worker is set up."""

    def __init__(self, run: Run, trace_setup: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), run.workload, run.mode, "1" if trace_setup else "0"],
            cwd=ROOT, env=run.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited early with code {self.proc.wait(timeout=OP_TIMEOUT_S)}")
        return json.loads(line)

    def ask(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def in_process(run: Run) -> dict:
    workers: list[Worker] = []
    try:
        for _ in range(1 if run.trace else run.spec.setups[run.workload]):
            if workers:
                workers[-1].close()
            workers.append(_setup(run, lambda: Worker(run, trace_setup=run.trace)))
        worker = workers[-1]
        outputs: list[dict] = []

        def play(traced: bool) -> float:
            if run.workload == "warm-queries":
                ops = wl.warm_round(run.spec, run.rng)
            else:
                ops = wl.oracle_round(run.spec, run.rng)
            reply = worker.ask({"cmd": "round", "ops": ops, "trace": traced})
            outputs.extend(reply["outputs"])
            labels = [json.dumps(op) for op in ops]
            return run.record(labels, reply["raw"], reply["scaled"], reply["probes"], traced)

        untraced, traced = timed_rounds(run, play)
        checks = None
        if run.workload == "warm-queries":
            checks = worker.ask({
                "cmd": "checks",
                "digest_ops": wl.digest_ops(run.spec, run.mode),
                "sin_pairs": wl.sin_cross_pairs(run.spec, run.rng),
            })
        trace_path = OUT_DIR / f"{run.workload}-seed{run.seed}.trace.json"
        worker.ask({"cmd": "finish", "trace_path": str(trace_path)})
        worker.proc.wait(timeout=OP_TIMEOUT_S)
    finally:
        for w in workers:
            w.close()
    _check_outputs(run, outputs, checks)
    if run.trace:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return tr.summarize([trace], len(traced), traced, untraced)
    return _end_to_end(run)


def _check_outputs(run: Run, outputs: list[dict], checks: dict | None) -> None:
    ref = wl.Reference(run.golden) if run.workload == "warm-queries" else None
    for out in outputs:
        if "error" in out:
            run.tally(False, f"op {out['op']} raised {out['error']}")
        elif ref is None:
            ok = wl.check_oracle(run.golden, out["r"], out["k"], out["rc"], out["stdout"])
            run.tally(ok, f"verify --r {out['r']} --k {out['k']} (exit {out['rc']})")
        else:
            run.tally(wl.check_warm(ref, out), f"warm query r={out['r']} k={out['k']} n={out['n']}")
    if ref is None:
        return
    digest = wl.digest(checks["digest_outputs"])
    run.tally(digest == run.golden["warm_queries"]["digest"][run.mode], f"golden digest {digest}")
    for item in checks["sin_cross"]:
        run.tally(wl.check_sin_cross(ref, item), f"sine sum n={item['n']} k={item['k']} vs sin_sum_numeric")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _end_to_end(run: Run) -> dict:
    (OUT_DIR / f"{run.workload}-seed{run.seed}.samples.json").write_text(
        json.dumps({"rounds": run.rounds, "setups": run.setups, "ops": run.ops, "probes": run.probes}),
        encoding="utf-8",
    )
    raw = {
        "wall_s": statistics.median(w for w, _ in run.rounds),
        "setup_s": statistics.median(s for s, _ in run.setups),
    }
    raw["op_p50_ms"], raw["op_p90_ms"] = _quantiles([x for _, x, _ in run.ops])
    p50, p90 = _quantiles([x for _, _, x in run.ops])
    beyond = sum(1 for _, _, x in run.ops if x * 1000 > p90)
    run.notes.append(
        f"{len(run.rounds)} timed rounds, {len(run.ops)} ops; {beyond} ops beyond p90"
        + (" (fewer than 10: read op_p90_ms with care, claim on wall_s)" if beyond < 10 else "")
    )
    run.notes.append(f"setup_s is the median of {len(run.setups)} set-ups")
    run.notes.append(
        f"times are at the reference speed (probe {PROBE_REF_S * 1000:.2f} ms); median probe here "
        f"{statistics.median(run.probes) * 1000:.3f} ms over {len(run.probes)} probes; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    return {
        "wall_s": statistics.median(w for _, w in run.rounds),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": statistics.median(s for _, s in run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def _write_trace(run: Run, traces: list[dict]) -> None:
    path = OUT_DIR / f"{run.workload}-seed{run.seed}.trace.json"
    path.write_text(json.dumps(traces), encoding="utf-8")


def report(run: Run, metrics: dict) -> dict:
    units = PER_LAYER_UNITS if run.trace else END_TO_END_UNITS
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}  mode {run.mode}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    print(f"  {'error_ratio':34s} {ratio:>16.6f} ratio  ({run.failed} failed / {run.attempted} attempted)")
    for note in run.notes:
        print(f"  note: {note}")
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true", help="print the cold scaling report instead")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--golden", type=Path, default=wl.GOLDEN_DIR, help="directory holding golden.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "meansq" / "__init__.py").is_file():
        print(f"perfbench: no meansq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if args.scaling:
        import scaling

        return scaling.report(ROOT, env)
    if args.workload is None:
        parser.error("--workload is required unless --scaling is given")
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        spec=wl.TINY if args.tiny else wl.FULL,
        mode="tiny" if args.tiny else "full",
        golden=wl.load_golden(args.golden),
        env=env,
        rng=wl.rng_for(args.workload, args.seed),
    )
    metrics = symbolic_cold(run) if run.workload == "symbolic-cold" else in_process(run)
    result = report(run, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
