"""Record the k sweep whose coarse levels stop at COARSE_TOL_OUTER and whose
started stages run their first ladder inexactly, against a checkout without
either rule.

    python3 scripts/bench_coarse_tolerances.py --parent DIR [--label NAME]
        [--seeds 0 47] [--pairs 10] [--seconds 8] [--out BENCH_coarse_tolerances.json]

DIR is a checkout of the commit to compare with (for example made with
`git archive`); the change is the checkout that holds this script.  Every
measurement runs in a fresh process and the record is written as JSON:

- `bench_pairs`: per workload and seed, `--pairs` alternating pairs of
  `python3 bench/run.py --workload W --seconds S` (`bench_nested_grids.
  bench_pairs`), with all four end-to-end metrics and the sweep counts.
- `sweeps`: the default `k_sweep` (shifted Broadwell, unit disk) at 32^2,
  64^2 and 128^2 on the acceptance Maxwellian and a step inflow, and at 32^2
  on the dense Maxwellian (`bench_richardson_pairs.sweeps`): sweeps and
  outer iterations per solve grid, wall time, oracle error, violations and
  the final field's relative L1 distance from the parent's.
- `earlier_levels`: per case of `LEVEL_CASES` and per level but the last,
  the relative L1 distance of the change's estimate from the parent's,
  against the gap between the parent's nested estimate and the estimate of
  the change's all-fine sweep (every level on the run grid); also how far
  each level's `final_residual` and each k distance move.
- `page_faults`: minor page faults (`getrusage`) per operation of each
  workload at seed 0, from one `bench/run.py` measurement per side with a
  counter around the workload's operation.

`--levels INFLOW N SRC OUT [--all-fine]` and `--faults WORKLOAD CHECKOUT`
are the per-process measurements the last two entries are built from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_nested_grids import bench_pairs, inflow_boundary, run_json  # noqa: E402
from bench_richardson_pairs import WORKLOADS, sweeps  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
LEVEL_CASES = [(inflow, n) for inflow in ("maxwellian", "step") for n in (32, 64, 128)]
FAULT_SECONDS = 8.0


def measure_levels(inflow: str, n: int, src: str, out: str, all_fine: bool) -> dict:
    """The default k sweep against the package under `src`; saves every
    level's estimate, stacked, to `out`.  `all_fine` runs every level on the
    run grid, through a workspace with no coarse workspace."""
    sys.path.insert(0, src)
    import numpy as np
    import dvmbvp as dv

    model, domain = dv.shifted_broadwell(), dv.ConvexDomain.disk()
    config = dv.SolverConfig(grid_n=n)
    ws = dv.SolverWorkspace(domain, model, dv.Grid(domain, n), config)
    if all_fine:
        ws.coarse = None
    sweep = dv.k_sweep(domain, model, inflow_boundary(dv, model, domain, inflow), config,
                       workspace=ws)
    np.save(out, np.stack([st.continuation.estimate.values for st in sweep.stages]))
    return {"final_residuals": [st.continuation.final_residual for st in sweep.stages],
            "k_distances": sweep.k_distances}


def measure_faults(workload: str, checkout: Path, seed: int, seconds: float) -> dict:
    """One untraced `bench/run.py` measurement of `checkout`, with the minor
    page faults of every operation counted around the workload's `op`."""
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import run
    wl = run.import_workloads().WORKLOADS[workload]()
    faults, op = [], wl.op

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return op(*args)
        finally:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    wl.op = counted
    res = run.measure(wl, seed, seconds)
    return {"ops": len(faults), "minor_faults_per_op_median": statistics.median(faults),
            "minor_faults_first_op": faults[0],
            "minor_faults_per_op_after_first": statistics.mean(faults[1:] or faults),
            "op_s": res["metrics"]["op_s"][0]}


def rel_l1(got, want) -> float:
    import numpy as np
    return float(np.abs(got - want).sum() / np.abs(want).sum())


def earlier_levels(parent: Path, tmp: str) -> list:
    import numpy as np
    script = str(Path(__file__).resolve())
    out = []
    for inflow, n in LEVEL_CASES:
        res = {}
        for side, checkout, fine in (("parent", parent, False), ("change", ROOT, False),
                                     ("all_fine", ROOT, True)):
            cmd = [sys.executable, script, "--levels", inflow, str(n), str(checkout / "src"),
                   f"{tmp}/{side}.npy"] + (["--all-fine"] if fine else [])
            res[side] = run_json(cmd, ROOT)[0]
        est = {side: np.load(f"{tmp}/{side}.npy") for side in res}
        levels = []
        for j in range(len(est["parent"]) - 1):
            moved = rel_l1(est["change"][j], est["parent"][j])
            gap = rel_l1(est["parent"][j], est["all_fine"][j])
            levels.append({"level": j, "moved": moved, "nested_vs_fine_gap": gap,
                           "moved_over_gap": moved / gap})
        want, got = res["parent"], res["change"]
        entry = {
            "inflow": inflow, "grid_n": n, "levels": levels,
            "final_field_moved": rel_l1(est["change"][-1], est["parent"][-1]),
            "final_residual_rel_change": [abs(g / w - 1.0) for g, w in zip(
                got["final_residuals"], want["final_residuals"])],
            "k_distance_rel_change": [abs(g / w - 1.0) for g, w in zip(
                got["k_distances"], want["k_distances"])],
            "runs": res,
        }
        print(f"{inflow} {n}: earlier levels moved <= "
              f"{max(lv['moved_over_gap'] for lv in levels):.2e} of their gap",
              file=sys.stderr, flush=True)
        out.append(entry)
    return out


def page_faults(parent: Path) -> dict:
    out = {}
    for w in WORKLOADS:
        out[w] = {}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--faults", w, str(checkout)]
            out[w][side] = run_json(cmd, ROOT)[0]
        print(f"{w}: minor faults per op {out[w]['parent']['minor_faults_per_op_median']} -> "
              f"{out[w]['change']['minor_faults_per_op_median']}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 47])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_coarse_tolerances.json")
    ap.add_argument("--levels", nargs=4, metavar=("INFLOW", "N", "SRC", "OUT"))
    ap.add_argument("--all-fine", action="store_true")
    ap.add_argument("--faults", nargs=2, metavar=("WORKLOAD", "CHECKOUT"))
    args = ap.parse_args()
    if args.levels:
        inflow, n, src, out = args.levels
        print(json.dumps(measure_levels(inflow, int(n), src, out, args.all_fine)))
        return 0
    if args.faults:
        w, checkout = args.faults
        print(json.dumps(measure_faults(w, Path(checkout).resolve(), 0, FAULT_SECONDS)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    parent = args.parent.resolve()
    import numpy
    record = {
        "what": "coarse levels of a nested k sweep stop at max(tol_outer, COARSE_TOL_OUTER) "
                "and a started stage runs its first ladder at max(tol_inner, INNER_FORCING), "
                "against every stage at tol_outer with its first ladder at tol_inner",
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": (f"python3 scripts/bench_coarse_tolerances.py --parent <checkout of "
                    f"{args.label}> --label {args.label} --seeds "
                    f"{' '.join(map(str, args.seeds))} --pairs {args.pairs} "
                    f"--seconds {args.seconds:g}"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["sweeps"] = sweeps(parent, tmp)
        record["earlier_levels"] = earlier_levels(parent, tmp)
    record["page_faults"] = page_faults(parent)
    record["bench_pairs"] = {w: {str(seed): bench_pairs(parent, w, seed, args.pairs,
                                                        args.seconds)
                                 for seed in args.seeds}
                             for w in WORKLOADS}
    args.out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
