"""Long-lived meansq session driven by ``run.py`` over a pipe.

Usage (started by run.py, not by hand):

    python3 perfbench/worker.py WORKLOAD MODE TRACE_SETUP

The worker imports meansq, builds the workload's tables, prints one
``ready`` line and then answers one JSON command per input line:

* ``{"cmd": "round", "ops": [...], "trace": bool}`` runs the ops one at a
  time and returns every output and each op's latency, raw and scaled to
  the reference speed (see probe.py);
* ``{"cmd": "checks", ...}`` runs the untimed checks (golden digest list,
  sine-sum cross-check against the numeric route);
* ``{"cmd": "finish", "trace_path": path}`` writes the spans and exits;
* ``{"cmd": "quit"}`` exits.

The package's own stdout is captured per op, so only protocol lines reach
the pipe.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

_T0 = perf_counter()
import meansq  # noqa: E402
import meansq.cli  # noqa: E402

IMPORT_S = perf_counter() - _T0

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from probe import Scaler  # noqa: E402


def _mpf_parts(x) -> list[int]:
    sign, man, exp, _ = x._mpf_
    return [sign, man, exp]


def _forms(r: int) -> tuple:
    forms = meansq.mean_square_odd(r) if r % 2 else meansq.mean_square_even(r)
    return forms if isinstance(forms, tuple) else (forms,)


def warm_op(r: int, k: int, n: int) -> dict:
    """One library query: read the memo into a ClosedForm, evaluate, render, exact sine sum."""
    forms = _forms(r)
    values = [meansq.evaluate_closed_form(f, k, 128) for f in forms]
    renders = [meansq.render(f, "json") for f in forms]
    sin = meansq.evaluate_jordan(meansq.sin_sum_exact(n), k)
    return {
        "r": r,
        "k": k,
        "n": n,
        "values": [_mpf_parts(v) for v in values],
        "renders": renders,
        "sin": f"{sin.numerator}/{sin.denominator}",
    }


def oracle_op(r: int, k: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = meansq.cli.main(["verify", "--r", str(r), "--k", str(k)])
    return {"r": r, "k": k, "rc": rc, "stdout": buf.getvalue()}


def setup(workload: str, spec: wl.Spec) -> None:
    """Build the tables the timed phase reads."""
    if workload == "warm-queries":
        for r in spec.warm_ranks:
            _forms(r)
        meansq.sin_sum_exact(spec.warm_n_max)
    elif workload == "oracle-sweep":
        for r in spec.oracle_ranks:
            _forms(r)


def run_round(workload: str, ops: list, tracer: tr.Tracer | None) -> dict:
    fn = warm_op if workload == "warm-queries" else oracle_op
    undo = tr.install(tracer) if tracer else None
    outputs = []
    scaler = Scaler()
    try:
        for op in ops:
            a = perf_counter()
            sid = tracer.open("bench.op") if tracer else None
            try:
                outputs.append(fn(*op))
            except Exception as exc:  # a failing op is counted, the session goes on
                outputs.append({"op": op, "error": f"{type(exc).__name__}: {exc}"})
            finally:
                if tracer:
                    tracer.close(sid)
            scaler.add(perf_counter() - a)
        scaler.flush()
    finally:
        if undo:
            tr.uninstall(undo)
    return {"raw": scaler.raw, "scaled": scaler.scaled, "probes": scaler.probes, "outputs": outputs}


def run_checks(ops: list, sin_pairs: list) -> dict:
    digest_outputs = [warm_op(*op) for op in ops]
    cross = []
    for n, k in sin_pairs:
        exact = meansq.evaluate_jordan(meansq.sin_sum_exact(n), k)
        numeric = meansq.sin_sum_numeric(n, k, 128)
        cross.append({"n": n, "k": k, "exact": f"{exact.numerator}/{exact.denominator}", "numeric": _mpf_parts(numeric)})
    return {"digest_outputs": digest_outputs, "sin_cross": cross}


def main() -> int:
    workload, mode, trace_setup = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    spec = wl.TINY if mode == "tiny" else wl.FULL
    proto = sys.stdout
    tracer = tr.Tracer() if trace_setup else None
    if tracer:
        undo = tr.install(tracer)
        sid = tracer.open("bench.setup")
        try:
            setup(workload, spec)
        finally:
            tracer.close(sid)
            tr.uninstall(undo)
    else:
        setup(workload, spec)
    print(json.dumps({"ready": True}), file=proto, flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "round":
            if cmd["trace"] and tracer is None:
                tracer = tr.Tracer()
            reply = run_round(workload, cmd["ops"], tracer if cmd["trace"] else None)
        elif cmd["cmd"] == "checks":
            reply = run_checks(cmd["digest_ops"], cmd["sin_pairs"])
        elif cmd["cmd"] == "finish":
            if tracer:
                tracer.dump(cmd["trace_path"], {"import_s": IMPORT_S})
            print(json.dumps({"done": True}), file=proto, flush=True)
            return 0
        else:
            return 0
        print(json.dumps(reply), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
