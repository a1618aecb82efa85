"""Record the nested-grid k sweep against a checkout without it.

    python3 scripts/bench_nested_grids.py --parent DIR [--label NAME]
        [--seeds 0 23] [--pairs 10] [--seconds 10] [--out BENCH_nested_grids.json]

DIR is a checkout of the commit to compare with (for example made with
`git archive`); the change is the checkout that holds this script.  Every
measurement runs in a fresh process, parent and change alternating, and the
record is written as JSON:

- `bench_pairs`: per seed, `--pairs` alternating pairs of
  `python3 bench/run.py --workload sweep32_maxwellian --seconds S`, each run
  in its own checkout, with all four end-to-end metrics; the first run of a
  pair alternates between parent and change.
- `other_workloads`: `OTHER_PAIRS` such pairs of `stage64_step` and
  `diagnose128` at seed 0, which never call `k_sweep`.
- `sweeps`: the default `k_sweep` (shifted Broadwell, unit disk) on the
  acceptance Maxwellian at 32^2 to 256^2 and on a step inflow at 32^2 to
  128^2: wall time (set-up included), peak RSS, oracle error, transport
  sweeps and outer iterations per solve grid, monotone violations, and the
  relative L1 distance of the change's final field from the parent's, whose
  sweep runs every level on the run grid.  Sizes up to 128^2 run
  `REPEATS` alternating pairs; times are their medians.
- `mollify_share`: the share of a nested sweep's wall time spent in
  `mollify_field`, at 128^2 and 256^2, from one more run of the change.

`--one INFLOW N SRC` is the per-process measurement the record is built from:
it runs one sweep against the `dvmbvp` package under SRC and prints one JSON
line; `--margin C` sets the ladder start margin first.  INFLOW is
`maxwellian`, `step` or `dense` (the Maxwellian with a = 2.5).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAXWELLIAN = (0.0, (0.1, -0.2), 0.05)        # the acceptance oracle's inflow
DENSE = (2.5, (0.1, -0.2), 0.05)             # the same Maxwellian, density x12
SIZES = {"maxwellian": (32, 64, 128, 256), "step": (32, 64, 128)}
REPEATS = 3                                  # pairs per size below 256^2
PROFILED = (128, 256)
OTHER_WORKLOADS = ("stage64_step", "diagnose128")
OTHER_PAIRS = 3


def step_inflow(dv, domain, p):
    """Per component i: 2 on half the boundary from i/p of a turn, else 0.25."""
    import numpy as np
    length = dv.geometry.boundary_param(domain).total_length
    return dv.BoundaryData(tuple(
        dv.fields.CallableTrace(lambda t, s=i / p * length:
                                np.where(np.mod(t - s, length) < 0.5 * length, 2.0, 0.25))
        for i in range(p)))


def inflow_boundary(dv, model, domain, inflow: str):
    """The boundary data of INFLOW `maxwellian`, `step` or `dense`."""
    if inflow == "step":
        return step_inflow(dv, domain, model.p)
    return dv.BoundaryData.maxwellian(model, *(DENSE if inflow == "dense" else MAXWELLIAN))


def measure_one(inflow: str, n: int, src: str, save: str | None, profile: bool,
                margin: float | None = None) -> dict:
    """One default k sweep in this process, against the package under `src`,
    with `solver.LADDER_START_MARGIN` set to `margin` when one is given."""
    sys.path.insert(0, src)
    import numpy as np
    import dvmbvp as dv
    from dvmbvp import solver

    if margin is not None:
        solver.LADDER_START_MARGIN = margin
    model, domain = dv.shifted_broadwell(), dv.ConvexDomain.disk()
    a, b, c = DENSE if inflow == "dense" else MAXWELLIAN
    boundary = inflow_boundary(dv, model, domain, inflow)
    mollify_s = [0.0]
    if profile:
        inner = solver.mollify_field

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                mollify_s[0] += time.perf_counter() - t0
        solver.mollify_field = timed
    t0 = time.perf_counter()
    sweep = dv.k_sweep(domain, model, boundary, dv.SolverConfig(grid_n=n))
    wall = time.perf_counter() - t0
    sweeps, outer = {}, {}
    starts = dict.fromkeys(("zero", "certified", "fallback"), 0)
    for st in sweep.stages:
        key = str(st.continuation.last.grid.n)
        for tr in st.continuation.traces:
            outer[key] = outer.get(key, 0) + tr.iterations
            sweeps[key] = sweeps.get(key, 0) + sum(ch.iterations for ch in tr.children)
            for ch in tr.children:                # older traces have no start
                starts[getattr(ch, "start", "") or "zero"] += 1
    out = {
        "inflow": inflow, "grid_n": n, "margin": margin, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged": sweep.converged,
        "alpha_stages": sum(len(st.continuation.traces) for st in sweep.stages),
        "final_residual": sweep.stages[-1].continuation.final_residual,
        "transport_sweeps_by_grid": sweeps, "outer_iterations_by_grid": outer,
        "ladder_starts": starts,
        "monotone_violations": sum(tr.monotone_violations for st in sweep.stages
                                   for tr in st.continuation.traces),
    }
    if inflow != "step":
        exact = dv.Field.constant(sweep.field.grid,
                                  np.exp(a + model.v @ np.array(b) + c * model.speeds_sq))
        out["oracle_rel_l1"] = sweep.field.l1_distance(exact) / exact.mass()
    if profile:
        out["mollify_field_s"] = mollify_s[0]
        out["mollify_field_share"] = mollify_s[0] / wall
    if save:
        np.save(save, sweep.field.values)
    return out


def run_json(cmd, cwd) -> tuple[dict, list]:
    """Run a command; the JSON object on its last output line, and the lines before."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its four end-to-end metrics, its operation
    counts, and the oracle error and sweep counts it prints."""
    res, lines = run_json([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          checkout)
    out = {name: m["value"] for name, m in res["metrics"].items()}
    out.update(attempted=res["attempted"], failed=res["failed"])
    for line in lines:
        key, _, val = line.strip().partition(": ")
        if key in ("oracle_rel_l1", "transport_sweeps", "outer_iterations",
                   "monotone_violations"):
            out[key] = float(val)
    return out


def one(inflow, n, checkout: Path, save=None, profile=False, margin=None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--one", inflow, str(n),
           str(checkout / "src")]
    if margin is not None:
        cmd += ["--margin", repr(margin)]
    if save:
        cmd += ["--save", save]
    if profile:
        cmd.append("--profile")
    return run_json(cmd, ROOT)[0]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "iqr": q[2] - q[0]}


def bench_pairs(parent: Path, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(parent if side == "parent" else ROOT, workload, seed,
                                        seconds))
            print(f"{workload} seed {seed} pair {i} {side}: op_s {runs[side][-1]['op_s']:.4f}",
                  file=sys.stderr, flush=True)
    op = {side: [r["op_s"] for r in runs[side]] for side in runs}
    stats = {side: quartiles(op[side]) for side in op}
    return {
        "runs": runs,
        "op_s": stats,
        "change_wins": sum(c < p for p, c in zip(op["parent"], op["change"])),
        "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
        "median_gap_over_parent_iqr":
            (stats["parent"]["median"] - stats["change"]["median"]) / stats["parent"]["iqr"],
        "metric_medians": {side: {m: statistics.median(r[m] for r in runs[side])
                                  for m in ("setup_s", "op_s", "peak_rss_mb", "mild_residual")}
                           for side in runs},
    }


def sweep_sizes(parent: Path, tmp: str) -> list:
    import numpy as np
    out = []
    for inflow, sizes in SIZES.items():
        for n in sizes:
            runs = {"parent": [], "change": []}
            for i in range(REPEATS if n < 256 else 1):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    checkout = parent if side == "parent" else ROOT
                    runs[side].append(one(inflow, n, checkout,
                                          save=f"{tmp}/{side}_{inflow}_{n}.npy"))
                    print(f"{inflow} {n} {side}: {runs[side][-1]['wall_s']:.2f} s",
                          file=sys.stderr, flush=True)
            want = np.load(f"{tmp}/parent_{inflow}_{n}.npy")
            got = np.load(f"{tmp}/change_{inflow}_{n}.npy")
            wall = {side: statistics.median(r["wall_s"] for r in runs[side]) for side in runs}
            out.append({
                "inflow": inflow, "grid_n": n, "wall_s_median": wall,
                "speedup": wall["parent"] / wall["change"],
                "rel_l1_from_all_fine": float(np.abs(got - want).sum() / np.abs(want).sum()),
                "runs": runs,
            })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 23])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_nested_grids.json")
    ap.add_argument("--one", nargs=3, metavar=("INFLOW", "N", "SRC"))
    ap.add_argument("--save")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--margin", type=float)
    args = ap.parse_args()
    if args.one:
        inflow, n, src = args.one
        print(json.dumps(measure_one(inflow, int(n), src, args.save, args.profile,
                                     args.margin)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    parent = args.parent.resolve()
    import numpy
    record = {
        "what": "k sweep with every level but the last on a coarse grid "
                "(max(16, n // 4) cells) against every level on the run grid",
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": (f"python3 scripts/bench_nested_grids.py --parent <checkout of {args.label}> "
                    f"--label {args.label} --seeds {' '.join(map(str, args.seeds))} "
                    f"--pairs {args.pairs} --seconds {args.seconds:g}"),
    }
    record["bench_pairs"] = {str(seed): bench_pairs(parent, "sweep32_maxwellian", seed,
                                                    args.pairs, args.seconds)
                             for seed in args.seeds}
    record["other_workloads"] = {w: bench_pairs(parent, w, 0, OTHER_PAIRS, args.seconds)
                                 for w in OTHER_WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        record["sweeps"] = sweep_sizes(parent, tmp)
    record["mollify_share"] = [one("maxwellian", n, ROOT, profile=True) for n in PROFILED]
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
