"""Record certified ladder starts against a checkout whose ladders all start from zero.

    python3 scripts/bench_warm_ladders.py --parent DIR [--label NAME]
        [--seeds 0 41] [--pairs 10] [--seconds 10] [--out BENCH_warm_ladders.json]

DIR is a checkout of the commit to compare with (for example made with
`git archive`); the change is the checkout that holds this script.  Every
measurement runs in a fresh process and the record is written as JSON:

- `bench_pairs`: per workload and seed, `--pairs` alternating pairs of
  `python3 bench/run.py --workload W --seconds S`, parent and change each in
  its own checkout, with all four end-to-end metrics and the sweep counts;
  the first run of a pair alternates between parent and change.
- `margin_scan`: the default `k_sweep` (shifted Broadwell, unit disk) of the
  change on the acceptance Maxwellian and on a step inflow at 32^2 and
  64^2, with `solver.LADDER_START_MARGIN` set to each of `MARGINS` and to
  infinity (delta >= 1 always: every ladder starts from zero): transport
  sweeps, outer iterations, certified and fallback starts, monotone
  violations, oracle error (Maxwellian), final mild residual, and the
  relative L1 distance of the final field from the zero-start sweep's.
- `sweep128`: the default sweep at 128^2 on the Maxwellian, `REPEATS`
  alternating parent/change pairs: wall time (set-up included), sweep counts
  and the distance between the two final fields.

Each sweep runs in its own process through `scripts/bench_nested_grids.py
--one`, with `--margin C` for the scan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_nested_grids import bench_pairs, one  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("stage64_step", "sweep32_maxwellian", "diagnose128")
MARGINS = (10.0, 30.0, 100.0, 300.0)
SCAN_SIZES = (32, 64)
REPEATS = 3                                  # 128^2 pairs


def rel_l1(path_a: str, path_b: str) -> float:
    import numpy as np
    a, b = np.load(path_a), np.load(path_b)
    return float(np.abs(a - b).sum() / np.abs(b).sum())


def margin_scan(tmp: str) -> list:
    out = []
    for inflow in ("maxwellian", "step"):
        for n in SCAN_SIZES:
            ref = f"{tmp}/zero_{inflow}_{n}.npy"
            runs = [one(inflow, n, ROOT, save=ref, margin=math.inf)]
            runs[0]["margin"] = "inf"              # every ladder from zero
            for c in MARGINS:
                got = f"{tmp}/c{c:g}_{inflow}_{n}.npy"
                runs.append(one(inflow, n, ROOT, save=got, margin=c))
                runs[-1]["rel_l1_from_zero_start"] = rel_l1(got, ref)
            for r in runs:
                r["transport_sweeps"] = sum(r["transport_sweeps_by_grid"].values())
                r["outer_iterations"] = sum(r["outer_iterations_by_grid"].values())
                print(f"{inflow} {n} c={r['margin']}: {r['transport_sweeps']} sweeps, "
                      f"starts {r['ladder_starts']}", file=sys.stderr, flush=True)
            out.extend(runs)
    return out


def sweep128(parent: Path, tmp: str) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(REPEATS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one("maxwellian", 128, parent if side == "parent" else ROOT,
                                  save=f"{tmp}/{side}_128.npy"))
            print(f"128 {side}: {runs[side][-1]['wall_s']:.2f} s", file=sys.stderr, flush=True)
    wall = {side: statistics.median(r["wall_s"] for r in runs[side]) for side in runs}
    return {"wall_s_median": wall, "speedup": wall["parent"] / wall["change"],
            "rel_l1_from_parent": rel_l1(f"{tmp}/change_128.npy", f"{tmp}/parent_128.npy"),
            "runs": runs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 41])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_warm_ladders.json")
    args = ap.parse_args()
    if args.parent is None:
        ap.error("--parent is required")
    parent = args.parent.resolve()
    import numpy
    record = {
        "what": "inner ladders after a stage's first start at (1 - c rel) x the previous "
                "outer iterate when that start certifies, against ladders that all "
                "start from zero",
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": (f"python3 scripts/bench_warm_ladders.py --parent <checkout of {args.label}> "
                    f"--label {args.label} --seeds {' '.join(map(str, args.seeds))} "
                    f"--pairs {args.pairs} --seconds {args.seconds:g}"),
    }
    record["bench_pairs"] = {w: {str(seed): bench_pairs(parent, w, seed, args.pairs,
                                                        args.seconds)
                                 for seed in args.seeds}
                             for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        record["margin_scan"] = margin_scan(tmp)
        record["sweep128"] = sweep128(parent, tmp)
    args.out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
