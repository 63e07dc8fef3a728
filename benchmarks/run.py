"""Run one boxlim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload laws --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One process runs one workload: a closed loop, one query at a
time, no threads.  ``--trace 0`` prints the end-to-end metrics
(``setup_s``, ``queries_per_s``, ``query_ms_p50``, ``query_ms_p90``,
``peak_rss_mb``, plus ``failed_share`` in the report lines); ``--trace 1``
prints the per-layer metrics from spans and a cProfile pass.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only if
every output check passed.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import mpmath

import inputs
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPS = 9          # timed fresh interpreters per run, after one untimed
HARD_LIMIT_S = 120.0    # a run never measures longer than this
# calibration (loop, reference seconds, every seconds), see speed.py;
# "process" is a bare interpreter start, used for set-up time everywhere
FRACTION_CLOCK = ("fraction", 1.2e-3, 0.05)
MPMATH_CLOCK = ("mpmath", 1.3e-3, 0.05)
PROCESS_CLOCK = ("process", 55e-3, 0.3)
CLOCKS = {
    "laws": FRACTION_CLOCK,
    "geometry": FRACTION_CLOCK,
    "oracle": MPMATH_CLOCK,
    "cli": PROCESS_CLOCK,
}
# passes a run needs before it may stop: a cli query is a whole process,
# whose start time jitters, so each cli position is timed twice
MIN_PASSES = {"laws": 1, "geometry": 1, "oracle": 1, "cli": 2}
# queries per traced pass (fewer if the warm-up quarter of --seconds ends first)
TRACE_QUERIES = {"laws": 2000, "geometry": 100, "oracle": 700, "cli": 18}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-queries", type=int, default=None,
                    help="queries a run needs before it may stop (default: whole "
                         "passes of the pool; smaller only for smoke tests)")
    return ap.parse_args(argv)


def fail(message: str) -> int:
    sys.stderr.write(f"benchmark: {message}\n")
    return 2


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, env: dict, clock: speed.SpeedClock) -> dict:
    """Fresh interpreter to `import boxlim` done and one warm-up query
    answered, SETUP_REPS times after one untimed run that fills the
    bytecode cache.  Medians of wall time, import time and the remainder
    (interpreter start and exit), in reference time."""
    argv = [sys.executable, "-c", workloads.setup_program(workload)]
    walls, imports, rests = [], [], []
    for rep in range(SETUP_REPS + 1):
        scale = clock.tick()
        t0 = perf_counter()
        code, out, _ = workloads.run_child(argv, env, ROOT)
        wall = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        import_s, warm_s = (float(v) for v in out.split())
        if rep:
            walls.append(wall * scale)
            imports.append(import_s * scale)
            rests.append((wall - import_s - warm_s) * scale)
    return {
        "setup_s": statistics.median(walls),
        "import_s": statistics.median(imports),
        "interpreter_s": statistics.median(rests),
    }


_RAISED = object()


def timed_loop(ctx, lib, seconds, min_queries=None, max_queries=None, tracer=None):
    """Closed loop over the pool positions, pass after pass: time each query,
    check it outside the timed interval.  Stops at a round boundary once
    `seconds` have passed and min_queries (default: MIN_PASSES whole
    passes) are done, or at max_queries.  Returns (latencies in reference seconds, in
    query order, so query i ran position i % pool size; failed count)."""
    query, check, clock = ctx.query, ctx.check, ctx.clock
    size = len(ctx.pool)
    if min_queries is None:
        min_queries = size * MIN_PASSES[ctx.workload]
    latencies = []
    failed = 0
    start = perf_counter()
    i = 0
    while True:
        k = i % size
        if k == 0:
            ctx.load_pass(i // size)
        if tracer is not None:
            tracer.query = i
        scale = clock.tick()
        t0 = perf_counter()
        try:
            out = query(lib, ctx.pool[k])
        except Exception:  # a query that raises is a failed query
            out = _RAISED
            if not failed:
                traceback.print_exc()
        t1 = perf_counter()
        if t1 - t0 > clock.every_s:  # long query: average the speed before and after
            scale = (scale + clock.tick()) / 2
        ok = False
        if out is not _RAISED:
            try:
                ok = check(ctx, ctx.raw[k], ctx.pool[k], out)
            except Exception:  # so is one whose output the check cannot read
                if not failed:
                    traceback.print_exc()
        latencies.append((t1 - t0) * scale)
        if not ok:
            if not failed:
                sys.stderr.write(f"benchmark: check failed on query {i} (position {k})\n")
            failed += 1
        i += 1
        elapsed = t1 - start
        if max_queries is not None and i >= max_queries:
            break
        if elapsed >= seconds and i >= min_queries and i % ctx.round == 0:
            break
        if elapsed >= HARD_LIMIT_S:
            break
    return latencies, failed


def per_position(latencies, size):
    """Each position's low median time over the passes, ascending.  A
    position does the same work on every pass, so its low median drops the
    odd timing that another tenant disturbed (of two timings it keeps the
    lesser), and the percentiles are taken over positions, that is over
    distinct queries."""
    times = {}
    for i, t in enumerate(latencies):
        times.setdefault(i % size, []).append(t)
    return sorted(statistics.median_low(ts) for ts in times.values())


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def profile_pass(ctx, n, seconds):
    """cProfile over the first n queries (the library call only)."""
    prof = cProfile.Profile()
    start = perf_counter()
    size = len(ctx.pool)
    for i in range(n):
        if i % size == 0:
            ctx.load_pass(i // size)
        item = ctx.pool[i % size]
        prof.enable()
        if ctx.workload == "cli":
            workloads.in_process_cli(ctx.boxlim_cli, item)
        else:
            ctx.query(ctx.lib, item)
        prof.disable()
        if perf_counter() - start >= seconds:
            break
    return spans.module_self_times(prof)


# ---------------------------------------------------------------------------
# metadata


def run_metadata(boxlim, args, digest, pool_size) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "boxlim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or None
    carrier = type(boxlim.scalars.ONE)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "pool_size": pool_size,
        "carrier": f"{carrier.__module__}.{carrier.__qualname__}",
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxlim" / "__init__.py").is_file():
        return fail(f"no library at {SRC / 'boxlim'}; run from a full checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    raw_pool = inputs.POOLS[args.workload](args.seed)
    digest = inputs.digest(raw_pool)
    env = workloads.cli_env(ROOT)
    loops = {
        "fraction": speed.fraction_loop,
        "mpmath": speed.mpmath_loop,
        "process": lambda: workloads.run_child([sys.executable, "-c", "pass"], env, ROOT),
    }

    def make_clock(kind, reference_s, every_s):
        return speed.SpeedClock(loops[kind], reference_s, every_s)

    process_clock = make_clock(*PROCESS_CLOCK)
    try:
        setup = measure_setup(args.workload, env, process_clock)
    except (RuntimeError, ValueError) as exc:
        return fail(f"set-up failed: {exc}")

    sys.path.insert(0, str(SRC))
    import boxlim
    import boxlim.cli

    if not Path(boxlim.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported boxlim from {boxlim.__file__}, not from {SRC}")

    convert, query, check = workloads.WORKLOADS[args.workload]
    lib = workloads.library(boxlim)
    ctx = SimpleNamespace(
        workload=args.workload, query=query, check=check, lib=lib, raw=raw_pool,
        pool=convert(boxlim, raw_pool), boxlim_cli=boxlim.cli, found=frozenset(),
        expected={}, main_s=[], child_rss_kb=[], tail_noise=0,
        round=inputs.ROUND[args.workload],
    )
    ctx.pass_index = 0

    def load_pass(index):
        """Geometry does the same work on fresh values each pass; the other
        workloads repeat their pool."""
        if args.workload != "geometry":
            return
        if index != ctx.pass_index:
            ctx.raw = inputs.geometry_pool(args.seed, index)
            ctx.pool = convert(boxlim, ctx.raw)
            ctx.pass_index = index
            gc.freeze()

    ctx.load_pass = load_pass
    if args.workload == "geometry":
        ctx.found = workloads.load_found()
    spec = CLOCKS[args.workload]
    clock = ctx.clock = process_clock if spec is PROCESS_CLOCK else make_clock(*spec)
    if args.workload == "cli":
        for argv_ in ctx.pool:
            scale = clock.tick()
            t0 = perf_counter()
            code, out = workloads.in_process_cli(boxlim.cli, argv_)
            ctx.main_s.append((perf_counter() - t0) * scale)
            ctx.expected[argv_] = out if code == 0 else None

        def run_cli(argv_):
            result = workloads.run_child(workloads.cli_argv(argv_), env, ROOT)
            ctx.child_rss_kb.append(result[2])
            return result

        lib.run_cli = run_cli

    meta = run_metadata(boxlim, args, digest, len(raw_pool))
    # the inputs are the benchmark's, not the library's garbage: keep them
    # out of the collections the library's allocations trigger
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, attempted, failed = traced_run(ctx, args, setup)
    else:
        metrics, attempted, failed = untraced_run(ctx, args, setup)

    meta.update(attempted=attempted, failed=failed,
                calibration_ms=statistics.median(clock.samples) * 1e3,
                failed_share=failed / attempted if attempted else 1.0,
                converge_tail_noise=ctx.tail_noise)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"carrier {meta['carrier']}  inputs sha256:{digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    print(f"  {'failed_share':42s} {meta['failed_share']:>14.6g} ratio "
          f"({failed}/{attempted})")
    if ctx.tail_noise:
        print(f"  known converge defect: {ctx.tail_noise} report(s) not converged on "
              "rounding noise alone (see benchmarks/README.md)")
    print("META " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def untraced_run(ctx, args, setup):
    latencies, failed = timed_loop(ctx, ctx.lib, args.seconds, args.min_queries)
    ordered = per_position(latencies, len(ctx.pool))
    if ctx.workload == "cli":
        peak_kb = max(ctx.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_ms_p50": (statistics.median(ordered) * 1e3, "ms"),
        "query_ms_p90": (percentile(ordered, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"samples {len(ordered)} positions, {len(latencies)} queries in "
          f"{sum(latencies):.3f} s reference time")
    return metrics, len(latencies), failed


def traced_run(ctx, args, setup):
    """A warm-up pass over a quarter of --seconds fixes the query count n;
    then the same n queries traced, untraced again, and under cProfile."""
    warm, failed_warm = timed_loop(ctx, ctx.lib, args.seconds / 4, min_queries=1,
                                   max_queries=TRACE_QUERIES[ctx.workload])
    n = len(warm)
    tracer = spans.Tracer()
    lib = workloads.traced_library(ctx.lib, tracer)
    if ctx.workload == "cli":
        lib.run_cli = tracer.wrap("cli.query", ctx.lib.run_cli)
    traced, failed_traced = timed_loop(ctx, lib, HARD_LIMIT_S, max_queries=n,
                                       tracer=tracer)
    plain, failed_plain = timed_loop(ctx, ctx.lib, HARD_LIMIT_S, max_queries=n)
    out = BUILD / "traces" / f"{ctx.workload}-seed{args.seed}.tsv.gz"
    tracer.write(out)
    self_times = profile_pass(ctx, n, args.seconds)
    # spans and profile times are raw; put them in reference time too
    scale = ctx.clock.run_factor()
    table = spans.span_table(tracer.spans, scale)
    self_times = {module: t * scale for module, t in self_times.items()}
    extra = {
        "cli.interpreter_s": (setup["interpreter_s"], "s"),
        "cli.import_s": (setup["import_s"], "s"),
        "cli.main_s": (statistics.median(ctx.main_s) if ctx.main_s else 0.0, "s"),
        "trace.overhead_ratio": (sum(plain) / sum(traced), "ratio"),
        "machine.calibration_ms": (statistics.median(ctx.clock.samples) * 1e3, "ms"),
    }
    metrics = spans.per_layer(table, self_times, extra)
    print(f"samples {n} queries each: warm-up, traced, untraced; "
          f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    print(f"  {'span':34s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for name in sorted(table):
        row = table[name]
        print(f"  {name:34s} {row['calls']:9d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    return metrics, 3 * n, failed_warm + failed_traced + failed_plain


if __name__ == "__main__":
    raise SystemExit(main())
