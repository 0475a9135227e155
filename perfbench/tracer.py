"""Span tracer that wraps the meansq package from outside.

Each layer is one module of the package.  ``install`` replaces every
public function of a layer (its ``__all__``, plus any private function that
another module imports) with a wrapper that records a span, in *every*
namespace that binds the function: ``from .exact import deriv_coeff`` copies
the reference, so patching only ``meansq.exact`` would miss the callers.
``uninstall`` puts the originals back, so traced and untraced rounds can
alternate inside one process.

Spans are kept in flat arrays (name id, start, end, parent id) and written
out once, at the end of the run.  ``summarize`` turns a written trace into
the per-layer metrics: call counts from span counts, self time as span time
minus the time of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("exact", "multiplicative", "symbolic", "sine_sums", "mean_square", "oracle", "cli")
SIGMA_BLOCKS = ("sigma0", "sigma1", "sigma2", "sigma0_prime", "sigma1_prime", "sigma2_prime")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counter_name = array("i")
        self.counter_span = array("i")
        self.counter_value = array("q")

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.span_name)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to a counter, attributed to the innermost open span."""
        self.counter_name.append(self._id(name))
        self.counter_span.append(self._stack[-1])
        self.counter_value.append(value)

    def wrap(self, name: str, fn, count_result: str | None = None):
        nid = self._id(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self._stack

        # open() and close() inlined: this runs on every call of a wrapped function.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count_result is not None:
                self.count(count_result, len(result))
            return result

        return wrapper

    def dump(self, path: str, meta: dict | None = None) -> None:
        data = {
            "meta": meta or {},
            "names": self.names,
            "span_name": list(self.span_name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counter_name": list(self.counter_name),
            "counter_span": list(self.counter_span),
            "counter_value": list(self.counter_value),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


class _CountingContext:
    """Stands in for mpmath's ``mp`` inside ``meansq.oracle``.

    Counts the oracle's Hurwitz-zeta and digamma evaluations; every other
    attribute is the real context's.
    """

    def __init__(self, ctx, tracer: Tracer) -> None:
        self._ctx = ctx
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def zeta(self, *args, **kwargs):
        self._tracer.count("oracle.hurwitz_evals")
        return self._ctx.zeta(*args, **kwargs)

    def digamma(self, *args, **kwargs):
        self._tracer.count("oracle.hurwitz_evals")
        return self._ctx.digamma(*args, **kwargs)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer's public functions; returns what ``uninstall`` needs."""
    namespaces = [m for n, m in list(sys.modules.items()) if n == "meansq" or n.startswith("meansq.")]
    layers = {name: sys.modules[f"meansq.{name}"] for name in LAYERS if f"meansq.{name}" in sys.modules}
    undo: list[tuple[object, str, object]] = []
    for layer, mod in layers.items():
        targets = set(getattr(mod, "__all__", ()))
        for ns in namespaces:
            if ns is not mod:
                targets.update(
                    v.__name__
                    for v in vars(ns).values()
                    if isinstance(v, types.FunctionType) and v.__module__ == mod.__name__
                )
        for fname in sorted(targets):
            fn = vars(mod).get(fname)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                continue
            counted = "oracle.characters" if (layer, fname) == ("oracle", "characters_with_parity") else None
            wrapper = tracer.wrap(f"{layer}.{fname}", fn, count_result=counted)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, fn))
    if "symbolic" in layers:
        cls = layers["symbolic"].ClosedForm
        post_init = cls.__post_init__
        cls.__post_init__ = tracer.wrap("symbolic.ClosedForm", post_init)
        undo.append((cls, "__post_init__", post_init))
    if "oracle" in layers:
        oracle = layers["oracle"]
        undo.append((oracle, "mp", oracle.mp))
        oracle.mp = _CountingContext(oracle.mp, tracer)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for target, attr, value in reversed(undo):
        setattr(target, attr, value)


# ---------------------------------------------------------------------------
# Turning written traces into per-layer metrics
# ---------------------------------------------------------------------------

def _layer_totals(trace: dict, root_name: str) -> dict[str, float]:
    """Per-name span counts and self times, and counter sums, under roots named ``root_name``."""
    names = trace["names"]
    span_name, start, end, parent = trace["span_name"], trace["start"], trace["end"], trace["parent"]
    n = len(span_name)
    root = [0] * n
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        root[i] = i if p < 0 else root[p]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    wanted = {i for i in range(n) if parent[i] < 0 and names[span_name[i]] == root_name}
    totals: dict[str, float] = {}
    for i in range(n):
        if root[i] not in wanted or i in wanted:
            continue
        name = names[span_name[i]]
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        totals[name + ".self_s"] = totals.get(name + ".self_s", 0.0) + (end[i] - start[i] - child_time[i])
    for nid, sid, value in zip(trace["counter_name"], trace["counter_span"], trace["counter_value"]):
        if sid >= 0 and root[sid] in wanted:
            name = names[nid]
            totals[name] = totals.get(name, 0) + value
    return totals


def _add(into: dict[str, float], totals: dict[str, float]) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0) + value


def _sum(totals: dict[str, float], prefix: str, suffix: str) -> float:
    return sum(v for k, v in totals.items() if k.startswith(prefix) and k.endswith(suffix))


def layer_metrics(totals: dict[str, float], rounds: int) -> dict[str, float]:
    """The per-layer metrics of the timed phase, per round."""
    per = {k: v / max(rounds, 1) for k, v in totals.items()}

    def calls(name: str) -> float:
        return per.get(name + ".calls", 0)

    out = {
        "exact.deriv_coeff.calls": calls("exact.deriv_coeff"),
        "exact.bernoulli.calls": calls("exact.bernoulli"),
        "exact.self_s": _sum(per, "exact.", ".self_s"),
        "sine_sums.sin_sum_exact.calls": calls("sine_sums.sin_sum_exact"),
        "sine_sums.self_s": _sum(per, "sine_sums.", ".self_s"),
        "mean_square.sigma.calls": sum(calls(f"mean_square.{b}") for b in SIGMA_BLOCKS),
        "mean_square.self_s": _sum(per, "mean_square.", ".self_s"),
        "symbolic.jc_add.calls": calls("symbolic.jc_add"),
        "symbolic.jc_scale.calls": calls("symbolic.jc_scale"),
        "symbolic.closed_form.calls": calls("symbolic.ClosedForm"),
        "symbolic.evaluate.self_s": _sum(per, "symbolic.evaluate_", ".self_s"),
        "symbolic.render.self_s": per.get("symbolic.render.self_s", 0.0),
        "symbolic.self_s": _sum(per, "symbolic.", ".self_s"),
        "multiplicative.factorize.calls": calls("multiplicative.factorize"),
        "multiplicative.jordan_totient.calls": calls("multiplicative.jordan_totient"),
        "multiplicative.self_s": _sum(per, "multiplicative.", ".self_s"),
        "oracle.character_group.self_s": per.get("oracle.character_group.self_s", 0.0),
        "oracle.characters.count": per.get("oracle.characters", 0),
        "oracle.l_value.calls": calls("oracle.l_value_numeric"),
        "oracle.self_s": _sum(per, "oracle.", ".self_s"),
        "oracle.hurwitz_evals": per.get("oracle.hurwitz_evals", 0),
        "cli.self_s": _sum(per, "cli.", ".self_s"),
    }
    return out


def setup_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up (table building before the timed phase)."""
    return {
        "setup.mean_square.sigma.calls": sum(totals.get(f"mean_square.{b}.calls", 0) for b in SIGMA_BLOCKS),
        "setup.exact.deriv_coeff.calls": totals.get("exact.deriv_coeff.calls", 0),
        "setup.exact.bernoulli.calls": totals.get("exact.bernoulli.calls", 0),
        "setup.sine_sums.sin_sum_exact.calls": totals.get("sine_sums.sin_sum_exact.calls", 0),
        "setup.symbolic.jc_add.calls": totals.get("symbolic.jc_add.calls", 0),
        "setup.symbolic.jc_scale.calls": totals.get("symbolic.jc_scale.calls", 0),
        "setup.mean_square.self_s": _sum(totals, "mean_square.", ".self_s"),
        "setup.sine_sums.self_s": _sum(totals, "sine_sums.", ".self_s"),
        "setup.exact.self_s": _sum(totals, "exact.", ".self_s"),
    }


def summarize(traces: list[dict], traced_rounds: int, traced_walls: list[float], untraced_walls: list[float]) -> dict[str, float]:
    """Every per-layer metric from the traces one run wrote.

    ``traced_rounds`` is the number of timed rounds the traces cover; the
    timed-phase metrics are per round.  Set-up metrics come from spans under
    a ``bench.setup`` root, timed ones from spans under ``bench.op`` roots.
    """
    timed: dict[str, float] = {}
    setup: dict[str, float] = {}
    import_times = []
    for trace in traces:
        _add(timed, _layer_totals(trace, "bench.op"))
        _add(setup, _layer_totals(trace, "bench.setup"))
        if "import_s" in trace["meta"]:
            import_times.append(trace["meta"]["import_s"])
    out = layer_metrics(timed, traced_rounds)
    out["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    out.update(setup_metrics(setup))
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out
