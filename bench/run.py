#!/usr/bin/env python3
"""Benchmark of the dvmbvp solver and diagnostics on seeded workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from `src/`.  The
workloads are `sweep32_maxwellian`, `stage64_step` and `diagnose128` (see
`bench/workloads.py` and `bench/NOTES.md`).

A run first builds the workspace `setup_reps` times, then repeats the
workload's timed operation until the next one would end after `--seconds`,
with at least `min_ops` operations.  It prints every metric by name with its
unit, then, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  An operation fails when it raises or when any of its
output checks fails; a failure is counted and the run goes on.

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing.  With `--trace 1` the run builds the workspace once with spans
around the grid and the table build, builds the tables once more under
`tracemalloc` for their size, then alternates an untraced and a traced
operation, and reports per-layer self times and counts per traced
operation, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOLVER_COUNTS = {"alpha_stages": "count", "outer_iterations": "count",
                 "transport_sweeps": "count", "sweeps_per_outer": "ratio",
                 "monotone_violations": "count", "mass_cap_max_ratio": "ratio"}
COUNTED_CALLS = ("fields.mollify_field", "geometry.exit_times")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def import_workloads():
    """Import the benchmark against the program in ./src, or exit 2."""
    if not (ROOT / "src" / "dvmbvp" / "__init__.py").is_file():
        print(f"error: no dvmbvp sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    import workloads
    import dvmbvp
    if Path(dvmbvp.__file__).resolve().parent != ROOT / "src" / "dvmbvp":
        print(f"error: imported dvmbvp from {dvmbvp.__file__}", file=sys.stderr)
        sys.exit(2)
    return workloads


def timed_op(wl, ws, inputs, index):
    """(outcome or None, seconds); an exception or failed check is reported, not raised."""
    t0 = time.perf_counter()
    try:
        out = wl.op(ws, inputs, index)
    except Exception:  # a failing operation is counted and the run goes on
        traceback.print_exc()
        return None, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    for check, passed in out.checks.items():
        if not passed:
            print(f"check failed in operation {index}: {check}", file=sys.stderr)
    return out, dt


def summary(outcomes) -> dict:
    """Operation counts, plus the oracle error and solver counts of the first outcome."""
    first = next((out for out in outcomes if out is not None), None)
    info = {} if first is None else dict(first.counts)
    if first is not None and first.oracle is not None:
        info["oracle_rel_l1"] = first.oracle
    return {
        "attempted": len(outcomes),
        "failed": sum(1 for out in outcomes if out is None or not out.ok),
        "info": info,
    }


def measure(wl, seed: int, seconds: float) -> dict:
    """Untraced run: set-up repetitions, then operations until the deadline."""
    inputs = wl.inputs(seed)
    start = time.perf_counter()
    setup_times = []
    ws = None
    for _ in range(wl.setup_reps):
        ws = None                 # free the previous workspace before the next build
        t0 = time.perf_counter()
        ws = wl.setup(inputs)
        setup_times.append(time.perf_counter() - t0)
    deadline = start + seconds
    outcomes, times = [], []
    while True:
        out, dt = timed_op(wl, ws, inputs, len(outcomes))
        outcomes.append(out)
        times.append(dt)
        if len(outcomes) >= wl.min_ops and time.perf_counter() + dt > deadline:
            break
    ok_times = [t for t, out in zip(times, outcomes) if out is not None and out.ok]
    # every run makes the first min_ops operations, so their residual is comparable
    residuals = [out.residual for out in outcomes[:wl.min_ops] if out is not None]
    run = summary(outcomes)
    run["info"] = {"setup_s samples": len(setup_times),
                   "op_s": f"{wl.op_kind}_s, {len(times)} samples", **run["info"]}
    run["metrics"] = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (statistics.median(ok_times or times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mild_residual": (statistics.median(residuals) if residuals else math.nan, "rel"),
    }
    return run


def table_alloc_mb(ws) -> float:
    """Memory a fresh set of characteristic tables holds, from tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = type(ws)(ws.domain, ws.model, ws.grid, ws.config)
        for i in range(ws.model.p):
            fresh.table(i)
        return (tracemalloc.get_traced_memory()[0] - before) / 2.0 ** 20
    finally:
        tracemalloc.stop()


def sweep_percentiles(sweeps_ms):
    """(p50, tail, tail percentile): the tail is the highest of TAIL_PERCENTILES
    with at least ten sweeps beyond it, else the median; all 0 without sweeps."""
    if not sweeps_ms:
        return 0.0, 0.0, 0.0
    import numpy as np
    q = next((q for q in TAIL_PERCENTILES if len(sweeps_ms) * (1.0 - q / 100.0) >= 10.0),
             50.0)
    p50, tail = np.percentile(sweeps_ms, [50.0, q])
    return float(p50), float(tail), q


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """Traced run: per-layer self times and counts per traced operation."""
    from tracing import LAYER_SPANS, Tracer
    tracer = Tracer()
    inputs = wl.inputs(seed)
    start = time.perf_counter()
    with tracer.patched(), tracer.span("setup"):
        ws = wl.setup(inputs, tracer.span)
    n_setup_spans = len(tracer.spans)
    alloc_mb = table_alloc_mb(ws)
    deadline = start + seconds
    outcomes, plain, traced = [], [], []
    while True:
        index = len(plain)
        out, dt = timed_op(wl, ws, inputs, index)
        outcomes.append(out)
        plain.append(dt)
        with tracer.patched(), tracer.span("op"):
            out, traced_dt = timed_op(wl, ws, inputs, index)
        outcomes.append(out)
        traced.append(traced_dt)
        if len(plain) >= wl.min_ops and time.perf_counter() + 2 * dt > deadline:
            break

    # set-up spans count once, operation spans per traced operation
    weights = [1.0 if i < n_setup_spans else 1.0 / len(traced)
               for i in range(len(tracer.spans))]
    own, calls = {}, {}
    for (name, _, _, _), w, s in zip(tracer.spans, weights, tracer.self_times()):
        own[name] = own.get(name, 0.0) + w * s
        calls[name] = calls.get(name, 0.0) + w
    wall = sum(w * (end - begin) for (_, begin, end, parent), w
               in zip(tracer.spans, weights) if parent < 0)
    if abs(sum(own.values()) - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError(f"self times add up to {sum(own.values())} s, "
                           f"traced wall is {wall} s")
    sweeps_ms = [1e3 * (end - begin) for name, begin, end, _ in tracer.spans
                 if name == "solver.apply_exponential"]
    p50, tail, tail_q = sweep_percentiles(sweeps_ms)

    run = summary(outcomes)
    counts = run["info"]
    metrics = {f"{name}_s": (own.get(name, 0.0), "s") for name in LAYER_SPANS}
    metrics["trace.unattributed_s"] = (own.get("setup", 0.0) + own.get("op", 0.0), "s")
    metrics["solver.sweep_ms_p50"] = (p50, "ms")
    metrics["solver.sweep_ms_tail"] = (tail, "ms")
    metrics["solver.sweep_tail_pct"] = (tail_q, "%")
    metrics["solver.table_alloc_mb"] = (alloc_mb, "MB")
    for name in COUNTED_CALLS:
        metrics[f"{name}_calls"] = (calls.get(name, 0.0), "count")
    for key, unit in SOLVER_COUNTS.items():
        metrics[f"solver.{key}"] = (counts.get(key, 0), unit)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    run["metrics"] = metrics
    run["info"] = {"traced operations": len(traced),
                   "transport sweeps timed": len(sweeps_ms)}
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    run = (measure_traced if args.trace else measure)(wl, args.seed, args.seconds)

    print(f"workload {wl.name} seed {args.seed} grid {wl.grid_n}^2 trace {args.trace}")
    for key, val in run["info"].items():
        print(f"  {key}: {val}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted_ops {run['attempted']} count")
    print(f"failed_ops {run['failed']} count")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        # a residual is NaN only when every operation failed
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
