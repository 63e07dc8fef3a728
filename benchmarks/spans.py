"""In-memory spans around the benchmark's calls into the library, and the
per-layer table derived from them and from a cProfile pass.

A span is [name, start, end, parent index, query id, outcome]; outcome is
None, or True/False for calls whose result says found / converged.  Spans
are kept in memory and written out once, after the traced pass.
"""

from __future__ import annotations

import gzip
import pstats
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.current = -1
        self.query = -1

    def wrap(self, name, fn, outcome=None):
        """fn wrapped to record a span; name is a string or a function of
        the call's arguments."""
        spans = self.spans

        def traced(*args):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    self.current, self.query, None]
            index = len(spans)
            spans.append(span)
            parent, self.current = self.current, index
            span[1] = perf_counter()
            try:
                result = fn(*args)
            finally:
                span[2] = perf_counter()
                self.current = parent
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\toutcome\n")
            for i, (name, start, end, parent, query, ok) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\t{ok}\n")


def span_table(spans: list, scale: float = 1.0) -> dict:
    """Per span name: calls, busy seconds, self seconds (busy minus the time
    its direct children cover), outcomes true, and busy seconds of calls
    whose outcome was false; every time multiplied by scale."""
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "child_s": 0.0,
                                 "ok": 0, "not_ok_busy_s": 0.0})
    for name, start, end, parent, _query, ok in spans:
        row = table[name]
        took = (end - start) * scale
        row["calls"] += 1
        row["busy_s"] += took
        if ok is True:
            row["ok"] += 1
        elif ok is False:
            row["not_ok_busy_s"] += took
        if parent >= 0:
            table[spans[parent][0]]["child_s"] += took
    for row in table.values():
        row["self_s"] = row["busy_s"] - row.pop("child_s")
    return dict(table)


def module_self_times(profiler) -> dict:
    """cProfile self time summed per module: boxlim modules by their own
    name, plus the fractions and mpmath libraries."""
    out: dict = defaultdict(float)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        path = filename.replace("\\", "/")
        if "/boxlim/" in path and path.endswith(".py"):
            out[path.rsplit("/", 1)[1][:-3]] += tottime
        elif path.endswith("/fractions.py"):
            out["fractions"] += tottime
        elif "/mpmath/" in path:
            out["mpmath"] += tottime
    return dict(out)


DET_SIZES = (3, 4, 5, 6, 7)
P_EVAL_OPS = ("sum", "inner", "norm", "dist", "det", "cos", "sin")


def per_layer(table: dict, self_times: dict, extra: dict) -> dict:
    """The per-layer metrics, by name: {name: (value, unit)}."""

    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                "ok": 0, "not_ok_busy_s": 0.0})

    def ratio(name):
        r = row(name)
        return r["ok"] / r["calls"] if r["calls"] else 0.0

    m: dict = {}
    for name in ("scalars.boxplus", "scalars.nary_boxplus", "metric.dist_boxplus",
                 "hull.co_contains", "lines.line_contains_nd", "deform.converge"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.busy_s"] = (row(name)["busy_s"], "s")
    for name in ("scalars.smile", "scalars.forms", "metric.ball", "cplane", "trig",
                 "maxplus.ops", "maxplus.mp_hull_contains", "deform.limit"):
        m[f"{name}.busy_s"] = (row(name)["busy_s"], "s")
    m["hull.co_contains.found_ratio"] = (ratio("hull.co_contains"), "ratio")
    m["lines.line_contains_nd.found_ratio"] = (ratio("lines.line_contains_nd"), "ratio")
    m["lines.line_contains_nd.notfound_busy_s"] = (
        row("lines.line_contains_nd")["not_ok_busy_s"], "s")
    m["deform.converge.converged_ratio"] = (ratio("deform.converge"), "ratio")
    m["deform.converge.self_s"] = (row("deform.converge")["self_s"], "s")
    det_rows = [row(f"linalg.det_infty.n{n}") for n in DET_SIZES]
    m["linalg.det_infty.calls"] = (sum(r["calls"] for r in det_rows), "count")
    m["linalg.det_infty.busy_s"] = (sum(r["busy_s"] for r in det_rows), "s")
    for n, r in zip(DET_SIZES, det_rows):
        m[f"linalg.det_infty.n{n}.calls"] = (r["calls"], "count")
        m[f"linalg.det_infty.n{n}.busy_s"] = (r["busy_s"], "s")
    for op in P_EVAL_OPS:
        m[f"deform.p_eval.{op}.busy_s"] = (row(f"deform.p_eval.{op}")["busy_s"], "s")
    for module in ("scalars", "fractions", "mpmath", "hull", "lines", "linalg", "deform"):
        m[f"{module}.self_s"] = (self_times.get(module, 0.0), "s")
    m.update(extra)
    return m


# per-layer metrics that come from outside the span table
EXTRA_UNITS = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
    "machine.calibration_ms": "ms",
}

PER_LAYER_UNITS = {
    name: unit for name, (_, unit) in per_layer(
        {}, {}, {name: (0.0, unit) for name, unit in EXTRA_UNITS.items()}).items()
}
